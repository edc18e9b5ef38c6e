//! The repository benchmark: three workloads over `sepra serve` and
//! in-process sessions, seven end-to-end metrics, and a traced run that
//! times each layer. `run.py` builds and launches it; see README.md.

pub mod check;
pub mod json;
pub mod model;
pub mod probe;
pub mod rng;
pub mod serve;
pub mod session;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use check::Record;
use model::{Edb, Inputs, Kind, Scale};
use serve::{Server, SetupParts, CLIENTS};
use stats::Metrics;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// WAL records in the pre-built data dir's tail (under the default
/// checkpoint cadence, so recovery replays all of them).
pub const PREBUILD_MUTATIONS: usize = 300;

/// Operations the layer probe replays at most, per workload: enough for
/// stable medians, few enough that the probe stays a fraction of the run.
fn probe_ops(kind: Kind) -> usize {
    match kind {
        Kind::ServeSelective => 3000,
        Kind::ServeWriteHeavy => 300,
        Kind::SessionFixpoint => 48,
    }
}

/// Everything one run produced, before checking and reporting.
pub struct Execution {
    /// Each program's reference EDB at the generation set-up ended at.
    pub initial: Vec<Edb>,
    pub start_generation: Vec<u64>,
    pub setups: Vec<SetupParts>,
    /// The windows, each with its measured length: an unmeasured warm-up,
    /// the untraced window and, in a traced run, an equally long traced
    /// one. Every window's operations are checked.
    pub windows: Vec<(Vec<Record>, f64)>,
    pub tracer: Tracer,
    pub peak_rss_mib: f64,
    /// Per-layer figures from the probe (traced runs).
    pub layers: Metrics,
    /// Checkpoints the durable server wrote during the windows.
    pub checkpoints: Option<u64>,
}

/// Runs workload `kind` at `scale`: set-ups, the timed window(s) and, when
/// `traced`, the layer probe. `work` holds the run's data dirs.
pub fn execute(
    kind: Kind,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    keep_raw: bool,
    work: &Path,
) -> Result<Execution, String> {
    let inputs = Inputs::generate(kind, scale, seed);
    let texts: Vec<String> = inputs.programs.iter().map(|p| p.text()).collect();
    let mut initial: Vec<Edb> = inputs.programs.iter().map(|p| p.edb.clone()).collect();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let ids = AtomicU64::new(0);
    // A short unmeasured warm-up window comes first: the plan cache, the
    // allocator and the clients' mutation pools reach their steady state.
    let warmup = (seconds / 10.0).min(1.0);
    let spans = if traced { vec![warmup, seconds, seconds] } else { vec![warmup, seconds] };
    let mut windows = Vec::new();
    let mut setups = Vec::new();
    let mut layers = Metrics::default();
    let mut checkpoints = None;

    let peak_rss_mib;
    let start_generation;
    if kind == Kind::SessionFixpoint {
        let mut last = None;
        for _ in 0..SETUPS {
            // Drop the previous set-up first: only one is ever alive, so
            // set-ups do not inflate the peak resident set.
            drop(last.take());
            let (qps, parts) = session::setup(&texts)?;
            setups.push(parts);
            last = Some(qps);
        }
        let mut qps = last.expect("at least one set-up");
        start_generation = qps.iter().map(|q| q.db().generation()).collect();
        let mut stream = inputs.client(0);
        for (i, &s) in spans.iter().enumerate() {
            let traced_window = i == 2;
            let mut t = Tracer::new(epoch);
            let w = session::window(
                &mut qps,
                &mut stream,
                s,
                &ids,
                traced_window.then_some(&mut t),
                keep_raw,
            );
            tracer.absorb(t);
            windows.push(w);
        }
        peak_rss_mib = stats::peak_rss_mib();
    } else {
        let durable = kind == Kind::ServeWriteHeavy;
        let template = work.join("template");
        if durable {
            let mutations = inputs.prebuild_mutations(PREBUILD_MUTATIONS);
            for m in &mutations {
                initial[0].apply(m);
            }
            serve::prebuild(&texts[0], &template, &mutations)?;
        }
        let mut last = None;
        for k in 0..SETUPS {
            let dir = work.join(format!("data-{k}"));
            if durable {
                serve::copy_dir(&template, &dir)?;
            }
            drop(last.take());
            let s = serve::setup(&texts[0], durable.then_some(dir.as_path()))?;
            setups.push(s.parts.clone());
            last = Some(s);
        }
        let setup = last.expect("at least one set-up");
        start_generation = vec![setup.qp.db().generation()];
        let server = Server::start(setup)?;
        let result = (|| {
            let r0 = if durable { Some(serve::records_since_checkpoint(&server)?) } else { None };
            let mut streams: Vec<_> = (0..CLIENTS as u64).map(|c| inputs.client(c)).collect();
            for (i, &s) in spans.iter().enumerate() {
                let (records, secs, t) =
                    serve::window(&server, &mut streams, s, &ids, i == 2, keep_raw)?;
                if let Some(t) = t {
                    tracer.absorb(t);
                }
                windows.push((records, secs));
            }
            if let Some(r0) = r0 {
                let effective = windows
                    .iter()
                    .flat_map(|(r, _)| r)
                    .filter(|r| matches!(r.outcome, check::Outcome::Mutate { inserted, retracted, .. } if inserted + retracted > 0))
                    .count() as u64;
                let every = sepra_server::DEFAULT_CHECKPOINT_EVERY;
                let r1 = serve::records_since_checkpoint(&server)?;
                if (r0 + effective) % every != r1 {
                    return Err(format!(
                        "WAL accounting: {r0} records before, {effective} commits, {r1} after \
                         do not fit a checkpoint every {every} records"
                    ));
                }
                checkpoints = Some((r0 + effective) / every);
            }
            Ok(())
        })();
        peak_rss_mib = stats::peak_rss_mib();
        server.stop()?;
        result?;
    }

    if traced {
        let records: Vec<Record> = windows.iter().flat_map(|(r, _)| r.iter().cloned()).collect();
        let exec = if kind == Kind::SessionFixpoint {
            session::cli_exec_options()
        } else {
            sepra_core::exec::ExecOptions::default()
        };
        let template = work.join("template");
        let input = probe::ProbeInput {
            texts: &texts,
            data: (kind == Kind::ServeWriteHeavy).then_some(template.as_path()),
            work,
            exec,
            served: kind != Kind::SessionFixpoint,
            records: &records,
            max_ops: probe_ops(kind),
            max_seconds: seconds / 2.0,
        };
        probe::run(&input, &mut tracer, &mut layers)?;
    }
    Ok(Execution {
        initial,
        start_generation,
        setups,
        windows,
        tracer,
        peak_rss_mib,
        layers,
        checkpoints,
    })
}
