//! The layer probe of a traced run: replays the logged operations, in
//! generation order, on a shadow processor set up like the workload's, and
//! times each layer's public entry points from here, one span per call.

use std::path::Path;
use std::sync::Arc;

use sepra_ast::{parse_program, DependencyGraph, Program, Query as AstQuery, RecursiveDef, Sym};
use sepra_core::exec::ExecOptions;
use sepra_core::{detect, PlanCache, SeparableEvaluator, SeparableRecursion};
use sepra_engine::{QueryProcessor, Strategy, StrategyChoice};
use sepra_eval::{maintain, seminaive_with_options, EvalOptions};
use sepra_repl::json::{self as sjson, ObjWriter};
use sepra_storage::{Database, EdbDelta, FxHashMap, Index, Relation, Value};
use sepra_wal::{codec, DurableStore, FsyncPolicy};

use crate::check::{replay_order, Outcome, Record};
use crate::serve::{copy_dir, fact_lists};
use crate::stats::{median, median_u64, Metrics};
use crate::trace::Tracer;

/// One separable predicate's supporting strata, maintained the way the
/// processor maintains its own copy: all rules but the predicate's.
struct Support {
    sep: SeparableRecursion,
    sub: Program,
    extra: FxHashMap<Sym, Relation>,
}

struct Shadow {
    qp: QueryProcessor,
    supports: FxHashMap<Sym, Support>,
    cache: Arc<PlanCache>,
}

fn eval_options(exec: &ExecOptions) -> EvalOptions {
    EvalOptions { threads: exec.threads, ..EvalOptions::default() }
}

fn shadow(text: &str, data: Option<&Path>, exec: &ExecOptions) -> Result<Shadow, String> {
    let mut qp = QueryProcessor::new();
    qp.load(text).map_err(|e| e.to_string())?;
    if let Some(dir) = data {
        sepra_server::Durability::recover(&mut qp, &crate::serve::durability_options(dir))
            .map_err(|e| e.to_string())?;
    }
    qp.set_exec_options(exec.clone());
    qp.prepare().map_err(|e| e.to_string())?;
    let program = qp.program().clone();
    let graph = DependencyGraph::build(&program);
    let mut preds: Vec<Sym> = program.rules.iter().map(|r| r.head.pred).collect();
    preds.sort_unstable_by_key(|p| p.0);
    preds.dedup();
    let mut supports = FxHashMap::default();
    for pred in preds {
        if !graph.is_recursive(pred) {
            continue;
        }
        let Ok(def) = RecursiveDef::extract(&program, pred, qp.db().interner()) else { continue };
        let Ok(sep) = detect(&def, qp.interner_mut()) else { continue };
        let sub =
            Program::new(program.rules.iter().filter(|r| r.head.pred != pred).cloned().collect());
        let extra = if sub.rules.is_empty() {
            FxHashMap::default()
        } else {
            seminaive_with_options(&sub, qp.db(), &eval_options(exec))
                .map_err(|e| e.to_string())?
                .relations
        };
        supports.insert(pred, Support { sep, sub, extra });
    }
    Ok(Shadow { qp, supports, cache: Arc::new(PlanCache::new()) })
}

fn engine_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Separable => "engine.query.separable",
        Strategy::Bounded => "engine.query.bounded",
        Strategy::MagicSets => "engine.query.magic",
        Strategy::SemiNaive => "engine.query.seminaive",
        _ => "engine.query.other",
    }
}

/// What the probe is given about the workload.
pub struct ProbeInput<'a> {
    pub texts: &'a [String],
    /// The pre-built data dir, for a durable workload.
    pub data: Option<&'a Path>,
    pub work: &'a Path,
    pub exec: ExecOptions,
    /// The requests arrive as JSON lines (served workloads).
    pub served: bool,
    pub records: &'a [Record],
    /// The replay stops after this many operations or seconds.
    pub max_ops: usize,
    pub max_seconds: f64,
}

/// Runs the probe, recording spans into `t` and figures into `m`.
pub fn run(input: &ProbeInput<'_>, t: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let durable = input.data.is_some();
    let mut shadows = Vec::new();
    for (i, text) in input.texts.iter().enumerate() {
        let data = match input.data {
            Some(template) => {
                let dir = input.work.join(format!("probe-data-{i}"));
                copy_dir(template, &dir)?;
                Some(dir)
            }
            None => None,
        };
        shadows.push(shadow(text, data.as_deref(), &input.exec)?);
    }
    let mut store = if durable {
        let dir = input.work.join("probe-wal");
        let _ = std::fs::remove_dir_all(&dir);
        Some(DurableStore::open(&dir, FsyncPolicy::Never).map_err(|e| e.to_string())?.0)
    } else {
        None
    };
    let hits0: Vec<(u64, u64)> =
        shadows.iter().map(|s| (s.qp.plan_cache().hits(), s.qp.plan_cache().misses())).collect();

    let (mut iterations, mut inserted, mut scanned, mut peak) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut copies, mut wal_bytes) = (Vec::new(), Vec::new());
    let mut done = 0;
    let deadline =
        std::time::Instant::now() + std::time::Duration::from_secs_f64(input.max_seconds);
    for i in replay_order(input.records) {
        if done >= input.max_ops || std::time::Instant::now() >= deadline {
            break;
        }
        let r = &input.records[i];
        let sh = &mut shadows[r.program];
        let id = r.id;
        match &r.outcome {
            Outcome::Failed { .. } => continue,
            Outcome::Query { query, .. } => {
                t.begin("probe.op", id);
                if input.served {
                    t.time("repl.json_parse", id, || sjson::parse(&r.request))
                        .map_err(|e| e.to_string())?;
                }
                let text = query.text();
                let q = t
                    .time("ast.parse_query", id, || sh.qp.parse_query(&text))
                    .map_err(|e| e.to_string())?;
                t.begin("engine.query", id);
                let result =
                    sh.qp.run_query(&q, StrategyChoice::Auto).map_err(|e| e.to_string())?;
                t.end();
                // Re-label the span by the strategy that ran.
                let last = t.spans.len() - 1;
                t.spans[last].name = engine_span(result.strategy);
                iterations.push(result.stats.iterations as u64);
                inserted.push(result.stats.tuples_inserted as u64);
                scanned.push(result.stats.rows_scanned as u64);
                peak.push(result.stats.relation_sizes.values().copied().max().unwrap_or(0) as u64);
                if result.strategy == Strategy::Separable {
                    separable_eval(sh, &q, &input.exec, t, id)?;
                }
                if input.served {
                    let interner = sh.qp.db().interner();
                    let answers = &result.answers;
                    t.time("repl.json_render", id, || {
                        render(answers, interner, sh.qp.db().generation())
                    });
                }
                t.end();
            }
            Outcome::Mutate { mutation, .. } => {
                t.begin("probe.op", id);
                if input.served {
                    t.time("repl.json_parse", id, || sjson::parse(&r.request))
                        .map_err(|e| e.to_string())?;
                }
                let (ins, ret) = fact_lists(mutation);
                t.begin("ast.parse_facts", id);
                let mut delta = EdbDelta::default();
                for (facts, bucket) in [(&ret, &mut delta.remove), (&ins, &mut delta.insert)] {
                    for fact in facts {
                        let program =
                            parse_program(fact, sh.qp.interner_mut()).map_err(|e| e.to_string())?;
                        for rule in program.rules {
                            let tuple =
                                sh.qp.db().ground_tuple(&rule.head).map_err(|e| e.to_string())?;
                            bucket.entry(rule.head.pred).or_default().push(tuple);
                        }
                    }
                }
                t.end();
                let (before, mid, after, effective) =
                    t.time("storage.apply_delta", id, || apply(sh.qp.db(), delta))?;
                if !effective.is_empty() {
                    let opts = eval_options(&input.exec);
                    let mut n = 0;
                    t.begin("eval.maintain", id);
                    for support in sh.supports.values_mut().filter(|s| !s.sub.rules.is_empty()) {
                        let derived = maintain(
                            &support.sub,
                            &before,
                            &mid,
                            &after,
                            &support.extra,
                            &effective,
                            &opts,
                        )
                        .map_err(|e| e.to_string())?;
                        support.extra = derived.relations;
                        n += 1;
                    }
                    t.end();
                    copies.push(n);
                }
                let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
                let ret: Vec<&str> = ret.iter().map(String::as_str).collect();
                let out = t
                    .time("engine.mutation", id, || sh.qp.apply_mutation(&ins, &ret))
                    .map_err(|e| e.to_string())?;
                sh.cache.validate_generation(sh.qp.generation(), Some(sh.qp.db()));
                if input.served {
                    let qp = &sh.qp;
                    drop(t.time("engine.snapshot_clone", id, || qp.clone()));
                }
                if let (Some(store), false) = (store.as_mut(), out.delta.is_empty()) {
                    let db = sh.qp.db();
                    let payload = t.time("wal.encode_delta", id, || {
                        codec::encode_delta(&out.delta, db.interner())
                    });
                    wal_bytes.push(payload.len() as u64);
                    t.time("wal.append", id, || store.append_delta(db.generation(), &payload))
                        .map_err(|e| e.to_string())?;
                    if store.records_since_checkpoint() >= sepra_server::DEFAULT_CHECKPOINT_EVERY {
                        checkpoint(store, db, t, id)?;
                    }
                }
                t.end();
            }
        }
        done += 1;
    }
    if let Some(store) = store.as_mut() {
        checkpoint(store, shadows[0].qp.db(), t, u64::MAX)?;
    }

    let med = |t: &Tracer, name: &str, scale: f64| median_u64(&t.durations(name)) / scale;
    for (name, span, unit, scale) in [
        ("repl.json_parse_us", "repl.json_parse", "us", 1e3),
        ("repl.json_render_us", "repl.json_render", "us", 1e3),
        ("ast.parse_query_us", "ast.parse_query", "us", 1e3),
        ("ast.parse_facts_us", "ast.parse_facts", "us", 1e3),
        ("engine.query_us.separable", "engine.query.separable", "us", 1e3),
        ("engine.query_us.bounded", "engine.query.bounded", "us", 1e3),
        ("engine.query_us.magic", "engine.query.magic", "us", 1e3),
        ("engine.query_us.seminaive", "engine.query.seminaive", "us", 1e3),
        ("engine.mutation_us", "engine.mutation", "us", 1e3),
        ("engine.snapshot_clone_us", "engine.snapshot_clone", "us", 1e3),
        ("core.separable_eval_us", "core.separable_eval", "us", 1e3),
        ("eval.maintain_us", "eval.maintain", "us", 1e3),
        ("storage.apply_delta_us", "storage.apply_delta", "us", 1e3),
        ("wal.encode_delta_us", "wal.encode_delta", "us", 1e3),
        ("wal.append_us", "wal.append", "us", 1e3),
        ("wal.checkpoint_ms", "wal.checkpoint", "ms", 1e6),
    ] {
        m.put(name, med(t, span, scale), unit);
    }
    let (mut hits, mut misses) = (0, 0);
    for (s, (h0, m0)) in shadows.iter().zip(&hits0) {
        hits += s.qp.plan_cache().hits() - h0;
        misses += s.qp.plan_cache().misses() - m0;
    }
    m.put("core.plan_cache_hits", hits as f64, "count");
    m.put("core.plan_cache_misses", misses as f64, "count");
    m.put("eval.support_copies_per_mutation", median_u64(&copies), "count");
    m.put("eval.iterations_per_query", median_u64(&iterations), "count");
    m.put("eval.tuples_inserted_per_query", median_u64(&inserted), "count");
    m.put("eval.rows_scanned_per_query", median_u64(&scanned), "count");
    m.put("eval.peak_relation_tuples", median_u64(&peak), "count");
    m.put("wal.bytes_per_mutation", median_u64(&wal_bytes), "bytes");

    fixpoint_layers(&shadows[0].qp, &input.exec, t, m)
}

/// Figure 2 execution alone: the detected recursion, run directly on the
/// shadow's database and supporting strata.
fn separable_eval(
    sh: &Shadow,
    q: &AstQuery,
    exec: &ExecOptions,
    t: &mut Tracer,
    id: u64,
) -> Result<(), String> {
    let Some(support) = sh.supports.get(&q.atom.pred) else { return Ok(()) };
    let evaluator = SeparableEvaluator::with_options(support.sep.clone(), exec.clone())
        .with_plan_cache(Arc::clone(&sh.cache));
    t.time("core.separable_eval", id, || evaluator.evaluate(q, sh.qp.db(), &support.extra))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Stages a delta the way `apply_mutation` does: retractions, then
/// insertions, each on a copy-on-write snapshot.
fn apply(
    db: &Database,
    delta: EdbDelta,
) -> Result<(Database, Database, Database, EdbDelta), String> {
    let before = db.clone();
    let mut db = db.clone();
    let mut effective = EdbDelta::default();
    let removes = EdbDelta { remove: delta.remove, ..EdbDelta::default() };
    effective.remove = db.apply_delta(&removes).map_err(|e| e.to_string())?.remove;
    let mid = db.clone();
    let inserts = EdbDelta { insert: delta.insert, ..EdbDelta::default() };
    effective.insert = db.apply_delta(&inserts).map_err(|e| e.to_string())?.insert;
    Ok((before, mid, db, effective))
}

fn checkpoint(
    store: &mut DurableStore,
    db: &Database,
    t: &mut Tracer,
    id: u64,
) -> Result<(), String> {
    t.time("wal.checkpoint", id, || {
        store.checkpoint(db.generation(), &codec::encode_database_columnar(db))
    })
    .map_err(|e| e.to_string())
}

/// An answer rendered as the server renders a query response.
fn render(answers: &Relation, interner: &sepra_ast::Interner, generation: u64) -> String {
    let mut rows = String::from("[");
    for (i, tuple) in answers.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push('[');
        for (j, value) in tuple.values().enumerate() {
            if j > 0 {
                rows.push(',');
            }
            rows.push('"');
            rows.push_str(&sjson::escape(&value.display(interner).to_string()));
            rows.push('"');
        }
        rows.push(']');
    }
    rows.push(']');
    let mut out = ObjWriter::new();
    out.raw("answers", &rows).num("count", answers.len() as u64).num("generation", generation);
    out.finish()
}

/// The whole-program fixpoint at 1 and N threads, the storage layer on
/// its largest relation, and stratification.
fn fixpoint_layers(
    qp: &QueryProcessor,
    exec: &ExecOptions,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let threads = exec.threads.max(sepra_server::default_threads());
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    let mut largest = Relation::new(0);
    for _ in 0..3 {
        for (n, out) in [(1, &mut t1), (threads, &mut tn)] {
            let opts = EvalOptions { threads: n, ..EvalOptions::default() };
            let start = std::time::Instant::now();
            let derived = t
                .time(
                    if n == 1 { "eval.seminaive.t1" } else { "eval.seminaive.tN" },
                    u64::MAX,
                    || seminaive_with_options(qp.program(), qp.db(), &opts),
                )
                .map_err(|e| e.to_string())?;
            out.push(start.elapsed().as_secs_f64() * 1e3);
            if let Some(r) = derived.relations.into_values().max_by_key(Relation::len) {
                if r.len() > largest.len() {
                    largest = r;
                }
            }
        }
    }
    let (t1, tn) = (median(&mut t1), median(&mut tn));
    m.put("eval.seminaive_ms.t1", t1, "ms");
    m.put("eval.seminaive_ms.tN", tn, "ms");
    m.put("eval.parallel_speedup", t1 / tn, "x");

    // Storage: re-insert the largest derived relation tuple by tuple, index
    // it on its first column, and probe every distinct key.
    let n = largest.len().max(1) as f64;
    let mut rel = Relation::new(largest.arity());
    let ns = timed(t, "storage.insert", || {
        for row in largest.iter() {
            rel.insert_from(row);
        }
    });
    m.put("storage.insert_ns_per_tuple", ns / n, "ns");
    let mut index = None;
    let ns = timed(t, "storage.index_build", || index = Some(Index::build(&rel, vec![0])));
    m.put("storage.index_build_us", ns / 1e3, "us");
    let index = index.expect("built");
    let keys: Vec<Value> = rel.distinct_values().into_iter().take(20_000).collect();
    let mut hits = 0usize;
    let ns = timed(t, "storage.probe", || {
        for k in &keys {
            hits += index.lookup(std::slice::from_ref(k)).len();
        }
    });
    std::hint::black_box(hits);
    m.put("storage.probe_ns", ns / keys.len().max(1) as f64, "ns");

    let mut us = Vec::new();
    for _ in 0..5 {
        let start = std::time::Instant::now();
        t.time("strata.stratify", u64::MAX, || sepra_strata::stratify(qp.program()))
            .map_err(|e| format!("{e:?}"))?;
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    m.put("strata.stratify_us", median(&mut us), "us");
    Ok(())
}

fn timed(t: &mut Tracer, name: &'static str, f: impl FnOnce()) -> f64 {
    let start = std::time::Instant::now();
    t.time(name, u64::MAX, f);
    start.elapsed().as_nanos() as f64
}
