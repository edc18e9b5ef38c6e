//! `sepra-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process, checks every answer, and prints a
//! summary, a run record, and as the last line one JSON object with the
//! metrics: the end-to-end ones untraced, the per-layer ones traced.

use std::path::PathBuf;
use std::process::ExitCode;

use sepra_perfbench::check::{check, Outcome, Record};
use sepra_perfbench::json::quote;
use sepra_perfbench::model::{Kind, Scale};
use sepra_perfbench::stats::{self, fingerprint_json, median, Metrics, Window};
use sepra_perfbench::{execute, Execution, SETUPS};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace expects 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let work = root.join("work").join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| {
            execute(args.kind, Scale::Full, args.seed, args.seconds, args.trace, false, &work)
        })
        .and_then(|ex| report(&args, &ex, &root));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(last_line) => {
            println!("{last_line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Checks the answers, prints the summary and run record, and returns the
/// final JSON line.
fn report(args: &Args, ex: &Execution, root: &std::path::Path) -> Result<String, String> {
    let all: Vec<Record> = ex.windows.iter().flat_map(|(r, _)| r.iter().cloned()).collect();
    let verdict = check(&all, &ex.initial, &ex.start_generation);
    for example in &verdict.examples {
        eprintln!("check: {example}");
    }
    let failed_ids: std::collections::HashSet<u64> = verdict.failed_ids.iter().copied().collect();
    let count = |query: bool| {
        let of_type: Vec<&Record> = all.iter().filter(|r| r.is_query() == query).collect();
        (of_type.len(), of_type.iter().filter(|r| failed_ids.contains(&r.id)).count())
    };
    let (q_attempted, q_failed) = count(true);
    let (m_attempted, m_failed) = count(false);
    let failed = q_failed + m_failed;

    let (records, secs) = &ex.windows[1];
    let window = Window::of(records, *secs)?;
    let mut totals: Vec<f64> = ex.setups.iter().map(|s| s.total).collect();
    let setup_s = median(&mut totals);
    let mut e2e = Metrics::default();
    for (name, p) in window.latencies() {
        e2e.put(name, p.value_us, "us");
    }
    e2e.put("ops_per_s", window.ops_per_s, "1/s");
    e2e.put("setup_s", setup_s, "s");
    e2e.put("peak_rss_mib", ex.peak_rss_mib, "MiB");

    let part = |f: fn(&sepra_perfbench::serve::SetupParts) -> f64| {
        let mut v: Vec<f64> = ex.setups.iter().map(f).collect();
        median(&mut v)
    };
    let mut layers = Metrics::default();
    let mut traced_window = None;
    if args.trace {
        let (records, secs) = &ex.windows[2];
        let traced = Window::of(records, *secs)?;
        let served = args.kind != Kind::SessionFixpoint;
        let overhead: Vec<u64> = records
            .iter()
            .filter(|r| served && !matches!(r.outcome, Outcome::Failed { .. }))
            .map(|r| (r.latency_ns / 1000).saturating_sub(r.elapsed_us))
            .collect();
        layers.put("server.overhead_us", stats::median_u64(&overhead), "us");
        layers.0.extend(ex.layers.0.iter().cloned());
        layers.put("engine.prepare_ms", part(|s| s.prepare) * 1e3, "ms");
        layers.put("lint.check_ms", part(|s| s.lint) * 1e3, "ms");
        layers.put("wal.recover_ms", part(|s| s.recover) * 1e3, "ms");
        layers.put("wal.checkpoints", ex.checkpoints.unwrap_or(0) as f64, "count");
        layers.put(
            "trace.overhead_pct",
            (traced.query_p50.value_us / window.query_p50.value_us - 1.0) * 100.0,
            "%",
        );
        traced_window = Some(traced);
    }

    // The human-readable summary.
    println!("workload {} seed {} window {:.3} s", args.kind.name(), args.seed, secs);
    println!("ops query attempted {q_attempted} failed {q_failed}");
    println!("ops mutation attempted {m_attempted} failed {m_failed}");
    let shown = if args.trace { &layers } else { &e2e };
    for (name, value, unit) in &shown.0 {
        println!("metric {name} {value:.4} {unit}");
    }

    let record = run_record(
        args,
        ex,
        &window,
        traced_window.as_ref(),
        setup_s,
        &verdict,
        [(q_attempted, q_failed), (m_attempted, m_failed)],
    );
    let runs = root.join("runs");
    std::fs::create_dir_all(&runs).map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}-trace{}", args.kind.name(), args.seed, u8::from(args.trace));
    std::fs::write(runs.join(format!("{stem}.json")), &record).map_err(|e| e.to_string())?;
    if args.trace {
        std::fs::write(runs.join(format!("{stem}.spans.jsonl")), ex.tracer.to_jsonl())
            .map_err(|e| e.to_string())?;
    }
    println!("run_record {record}");

    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        verdict.mismatches == 0,
        all.len(),
        shown.to_json()
    ))
}

fn run_record(
    args: &Args,
    ex: &Execution,
    window: &Window,
    traced: Option<&Window>,
    setup_s: f64,
    verdict: &sepra_perfbench::check::Verdict,
    ops: [(usize, usize); 2],
) -> String {
    let pct = |w: &Window| {
        w.latencies()
            .iter()
            .map(|(n, p)| {
                format!(
                    "\"{n}\":{{\"value\":{},\"samples\":{},\"beyond\":{}}}",
                    stats::num(p.value_us),
                    p.samples,
                    p.beyond
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\
         \"ops\":{{\"query\":{{\"attempted\":{},\"failed\":{}}},\"mutation\":{{\"attempted\":{},\"failed\":{}}}}},\
         \"mismatches\":{},\"errors\":{},\"window_s\":{},\"percentiles\":{{{}}},\"ops_per_s\":{},\
         \"setup\":{{\"runs\":{SETUPS},\"median_s\":{},\"totals_s\":[{}]}},\"peak_rss_mib\":{}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace,
        fingerprint_json(),
        ops[0].0,
        ops[0].1,
        ops[1].0,
        ops[1].1,
        verdict.mismatches,
        verdict.errors,
        stats::num(window.seconds),
        pct(window),
        stats::num(window.ops_per_s),
        stats::num(setup_s),
        ex.setups.iter().map(|s| stats::num(s.total)).collect::<Vec<_>>().join(","),
        stats::num(ex.peak_rss_mib),
    );
    // Latency by kind of operation (query predicate and strategy, or
    // mutation), which shows what each percentile is made of.
    let mut kinds: std::collections::BTreeMap<String, Vec<u64>> = std::collections::BTreeMap::new();
    for r in &ex.windows[1].0 {
        let kind = match &r.outcome {
            Outcome::Query { query, strategy, .. } => {
                format!("{}/{strategy}", query.text().split('(').next().unwrap_or(""))
            }
            Outcome::Mutate { mutation, .. } => {
                format!("mutation/{}", mutation.insert.first().map_or("retract", |f| f.0))
            }
            Outcome::Failed { .. } => "failed".into(),
        };
        kinds.entry(kind).or_default().push(r.latency_ns);
    }
    let kinds: Vec<String> = kinds
        .iter()
        .map(|(k, ns)| {
            format!(
                "{}:{{\"count\":{},\"median_us\":{}}}",
                quote(k),
                ns.len(),
                stats::num(stats::median_u64(ns) / 1e3)
            )
        })
        .collect();
    out.push_str(&format!(",\"latency_by_kind\":{{{}}}", kinds.join(",")));
    if let Some(t) = traced {
        // Tracing overhead: the traced window's figures against the
        // untraced window's, as a share.
        let rel = |a: f64, b: f64| stats::num(a / b - 1.0);
        out.push_str(&format!(
            ",\"traced_window\":{{\"percentiles\":{{{}}},\"ops_per_s\":{}}},\"tracing_overhead\":{{",
            pct(t),
            stats::num(t.ops_per_s)
        ));
        let parts: Vec<String> = window
            .latencies()
            .iter()
            .zip(t.latencies())
            .map(|((n, a), (_, b))| format!("\"{n}\":{}", rel(b.value_us, a.value_us)))
            .chain([format!("\"ops_per_s\":{}", rel(t.ops_per_s, window.ops_per_s))])
            .collect();
        out.push_str(&parts.join(","));
        out.push_str("},\"self_time_ms\":{");
        let selfs: Vec<String> = ex
            .tracer
            .self_times()
            .iter()
            .map(|(n, (count, total, own))| {
                format!(
                    "{}:{{\"count\":{count},\"total\":{},\"self\":{}}}",
                    quote(n),
                    stats::num(*total as f64 / 1e6),
                    stats::num(*own as f64 / 1e6)
                )
            })
            .collect();
        out.push_str(&selfs.join(","));
        out.push('}');
    }
    out.push('}');
    out
}
