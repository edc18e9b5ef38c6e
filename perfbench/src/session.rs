//! The session workload: in-process `QueryProcessor`s driven by one
//! caller thread, with the executor options the `sepra` CLI sets by
//! default (threads = available parallelism).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sepra_core::exec::ExecOptions;
use sepra_engine::QueryProcessor;
use sepra_server::{default_threads, lint_gate};

use crate::check::{Answer, Outcome, Record};
use crate::model::{ClientStream, Op};
use crate::serve::{fact_lists, SetupParts};
use crate::trace::Tracer;

/// The CLI's default executor options.
pub fn cli_exec_options() -> ExecOptions {
    ExecOptions { threads: default_threads(), ..ExecOptions::default() }
}

/// Loads, lints and prepares one processor per program.
pub fn setup(texts: &[String]) -> Result<(Vec<QueryProcessor>, SetupParts), String> {
    let mut parts = SetupParts::default();
    let start = Instant::now();
    let mut qps = Vec::new();
    for text in texts {
        let t0 = Instant::now();
        let mut qp = QueryProcessor::new();
        qp.load(text).map_err(|e| format!("load: {e}"))?;
        qp.set_exec_options(cli_exec_options());
        let t1 = Instant::now();
        lint_gate(&qp, false).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        qp.prepare().map_err(|e| format!("prepare: {e}"))?;
        let t3 = Instant::now();
        parts.load += (t1 - t0).as_secs_f64();
        parts.lint += (t2 - t1).as_secs_f64();
        parts.prepare += (t3 - t2).as_secs_f64();
        qps.push(qp);
    }
    parts.total = start.elapsed().as_secs_f64();
    Ok((qps, parts))
}

/// Runs one operation in process, timing only the processor call.
pub fn run_op(qps: &mut [QueryProcessor], op: &Op, id: u64, keep_raw: bool) -> Record {
    match op {
        Op::Query { program, query } => {
            let qp = &mut qps[*program];
            let text = query.text();
            let t0 = Instant::now();
            let result = qp.query(&text);
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let outcome = match result {
                Ok(result) => {
                    let interner = qp.db().interner();
                    let tuples: Vec<Vec<String>> = result
                        .answers
                        .iter()
                        .map(|row| row.values().map(|v| v.display(interner).to_string()).collect())
                        .collect();
                    Outcome::Query {
                        query: query.clone(),
                        answer: Answer::of(&tuples),
                        strategy: result.strategy.to_string(),
                        raw: keep_raw.then_some(tuples),
                    }
                }
                Err(e) => Outcome::Failed { is_query: true, message: e.to_string() },
            };
            let generation = qp.db().generation();
            Record {
                id,
                program: *program,
                generation,
                latency_ns,
                elapsed_us: 0,
                request: String::new(),
                outcome,
            }
        }
        Op::Mutate { program, mutation } => {
            let qp = &mut qps[*program];
            let (ins, ret) = fact_lists(mutation);
            let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
            let ret: Vec<&str> = ret.iter().map(String::as_str).collect();
            let t0 = Instant::now();
            let result = qp.apply_mutation(&ins, &ret);
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let outcome = match result {
                Ok(out) => Outcome::Mutate {
                    mutation: mutation.clone(),
                    inserted: out.inserted,
                    retracted: out.retracted,
                },
                Err(e) => Outcome::Failed { is_query: false, message: e.to_string() },
            };
            let generation = qp.db().generation();
            Record {
                id,
                program: *program,
                generation,
                latency_ns,
                elapsed_us: 0,
                request: String::new(),
                outcome,
            }
        }
    }
}

/// Runs whole rounds for `seconds` on one thread.
pub fn window(
    qps: &mut [QueryProcessor],
    stream: &mut ClientStream,
    seconds: f64,
    ids: &AtomicU64,
    mut tracer: Option<&mut Tracer>,
    keep_raw: bool,
) -> (Vec<Record>, f64) {
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let mut records = Vec::new();
    while Instant::now() < deadline {
        for op in stream.round() {
            let id = ids.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = tracer.as_deref_mut() {
                t.begin("op", id);
            }
            records.push(run_op(qps, &op, id, keep_raw));
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
            }
        }
    }
    (records, begin.elapsed().as_secs_f64())
}
