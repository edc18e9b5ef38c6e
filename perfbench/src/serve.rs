//! The served workloads: an in-process `sepra serve` (through
//! `sepra_server::server::run`) on loopback TCP, driven by a closed loop
//! of line-delimited JSON clients.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sepra_engine::QueryProcessor;
use sepra_server::{lint_gate, Durability, DurabilityOptions, ServeError, ServeOptions};
use sepra_wal::FsyncPolicy;

use crate::check::{Answer, Outcome, Record};
use crate::json::{self, Val};
use crate::model::{fact_text, ClientStream, Mutation, Op};
use crate::trace::Tracer;

/// Connections in the closed loop, and server workers: one each, so no
/// connection queues behind another (a worker serves a whole connection).
pub const CLIENTS: usize = 2;

/// Timings of one set-up, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupParts {
    pub load: f64,
    pub lint: f64,
    pub recover: f64,
    pub prepare: f64,
    pub bind: f64,
    pub total: f64,
}

pub struct Setup {
    pub qp: QueryProcessor,
    pub durability: Option<Durability>,
    pub listener: TcpListener,
    pub parts: SetupParts,
}

/// The durability options a write-heavy server runs with: no fsync (the
/// benchmark measures the engine and the log format, not the disk) and the
/// default checkpoint cadence.
pub fn durability_options(dir: &Path) -> DurabilityOptions {
    DurabilityOptions { fsync: FsyncPolicy::Never, ..DurabilityOptions::new(dir.to_path_buf()) }
}

/// The steps `serve()` takes before the first request can be served:
/// load, lint gate, optional recovery, prepare, bind.
pub fn setup(text: &str, data_dir: Option<&Path>) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut qp = QueryProcessor::new();
    qp.load(text).map_err(|e| format!("load: {e}"))?;
    let t1 = Instant::now();
    lint_gate(&qp, false).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let durability = match data_dir {
        Some(dir) => Some(
            Durability::recover(&mut qp, &durability_options(dir))
                .map_err(|e| format!("recover: {e}"))?,
        ),
        None => None,
    };
    let t3 = Instant::now();
    qp.prepare().map_err(|e| format!("prepare: {e}"))?;
    let t4 = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let t5 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok(Setup {
        qp,
        durability,
        listener,
        parts: SetupParts {
            load: s(t0, t1),
            lint: s(t1, t2),
            recover: s(t2, t3),
            prepare: s(t3, t4),
            bind: s(t4, t5),
            total: s(t0, t5),
        },
    })
}

/// Builds a data dir holding a checkpoint of the program's facts and a
/// WAL tail of `mutations`, as a durable server leaves it.
pub fn prebuild(text: &str, dir: &Path, mutations: &[Mutation]) -> Result<(), String> {
    let mut qp = QueryProcessor::new();
    qp.load(text).map_err(|e| format!("load: {e}"))?;
    let mut durability = Durability::recover(&mut qp, &durability_options(dir))
        .map_err(|e| format!("prebuild: {e}"))?;
    for m in mutations {
        let (ins, ret) = fact_lists(m);
        let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
        let ret: Vec<&str> = ret.iter().map(String::as_str).collect();
        let out = qp.apply_mutation(&ins, &ret).map_err(|e| format!("prebuild: {e}"))?;
        if !out.delta.is_empty() {
            durability.record_commit(qp.db(), &out.delta).map_err(|e| format!("prebuild: {e}"))?;
        }
    }
    durability.sync().map_err(|e| format!("prebuild: {e}"))
}

/// Copies the files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

pub fn fact_lists(m: &Mutation) -> (Vec<String>, Vec<String>) {
    (m.insert.iter().map(fact_text).collect(), m.retract.iter().map(fact_text).collect())
}

/// The request line for an operation.
pub fn request_line(op: &Op) -> String {
    match op {
        Op::Query { query, .. } => format!("{{\"query\":{}}}", json::quote(&query.text())),
        Op::Mutate { mutation, .. } => {
            let (ins, ret) = fact_lists(mutation);
            let list =
                |v: &[String]| v.iter().map(|f| json::quote(f)).collect::<Vec<_>>().join(",");
            format!("{{\"insert\":[{}],\"retract\":[{}]}}", list(&ins), list(&ret))
        }
    }
}

/// A running server.
pub struct Server {
    pub addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), ServeError>>,
}

impl Server {
    pub fn start(setup: Setup) -> Result<Server, String> {
        let addr = setup.listener.local_addr().map_err(|e| e.to_string())?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let opts = ServeOptions { threads: CLIENTS, ..ServeOptions::default() };
        let handle = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || {
                sepra_server::server::run(setup.listener, setup.qp, &opts, flag, setup.durability)
            })
            .map_err(|e| e.to_string())?;
        Ok(Server { addr, shutdown, handle })
    }

    /// One request on a fresh connection (used for `{"stats": true}`).
    pub fn request(&self, line: &str) -> Result<Val, String> {
        let mut conn = Connection::open(self.addr)?;
        let text = conn.roundtrip(line)?;
        json::parse(&text)
    }

    /// Raises the shutdown flag and waits for every worker to drain.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Connection {
    fn open(addr: std::net::SocketAddr) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { writer: stream, reader, line: String::new() })
    }

    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(request.len() + 1);
        framed.push_str(request);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes()).map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(std::mem::take(&mut self.line)),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Decodes a response into an outcome, the stamped generation and the
/// engine's `elapsed_us`.
pub fn decode(op: &Op, text: &str, keep_raw: bool) -> (Outcome, u64, u64) {
    let is_query = matches!(op, Op::Query { .. });
    let failed = |message: String| (Outcome::Failed { is_query, message }, 0, 0);
    let v = match json::parse(text.trim_end()) {
        Ok(v) => v,
        Err(e) => return failed(format!("unreadable response: {e}")),
    };
    if let Some(err) = v.get("error") {
        return failed(format!(
            "error response: {}",
            err.get("message").and_then(Val::str).unwrap_or("?")
        ));
    }
    let field = |k: &str| v.get(k).and_then(Val::num).map(|n| n as u64);
    let (Some(generation), Some(elapsed)) = (field("generation"), field("elapsed_us")) else {
        return failed(format!("response lacks generation or elapsed_us: {text}"));
    };
    let outcome = match op {
        Op::Query { query, .. } => {
            let Some(rows) = v.get("answers").and_then(Val::arr) else {
                return failed("query response lacks answers".into());
            };
            let tuples: Vec<Vec<String>> = rows
                .iter()
                .map(|row| {
                    row.arr()
                        .unwrap_or(&[])
                        .iter()
                        .map(|x| x.str().unwrap_or("").to_string())
                        .collect()
                })
                .collect();
            Outcome::Query {
                query: query.clone(),
                answer: Answer::of(&tuples),
                strategy: v.get("strategy").and_then(Val::str).unwrap_or("").to_string(),
                raw: keep_raw.then_some(tuples),
            }
        }
        Op::Mutate { mutation, .. } => Outcome::Mutate {
            mutation: mutation.clone(),
            inserted: field("inserted").unwrap_or(u64::MAX) as usize,
            retracted: field("retracted").unwrap_or(u64::MAX) as usize,
        },
    };
    (outcome, generation, elapsed)
}

/// One client of the closed loop: sends whole rounds until `deadline`,
/// waiting for each response before the next request.
fn client_loop(
    addr: std::net::SocketAddr,
    mut stream: ClientStream,
    start: &Barrier,
    seconds: f64,
    ids: &AtomicU64,
    mut tracer: Option<&mut Tracer>,
    keep_raw: bool,
) -> Result<(ClientStream, Vec<Record>, Instant), String> {
    // Reach the barrier even when connecting fails, so the other threads
    // are never left waiting for this one.
    let conn = Connection::open(addr);
    start.wait();
    let mut conn = conn?;
    let mut records = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        for op in stream.round() {
            let id = ids.fetch_add(1, Ordering::Relaxed);
            let program = match &op {
                Op::Query { program, .. } | Op::Mutate { program, .. } => *program,
            };
            if let Some(t) = tracer.as_deref_mut() {
                t.begin("op", id);
                t.begin("client.encode", id);
            }
            let line = request_line(&op);
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
                t.begin("net.roundtrip", id);
            }
            let t0 = Instant::now();
            let response = conn.roundtrip(&line)?;
            let latency_ns = t0.elapsed().as_nanos() as u64;
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
                t.begin("client.decode", id);
            }
            let (outcome, generation, elapsed_us) = decode(&op, &response, keep_raw);
            if let Some(t) = tracer.as_deref_mut() {
                t.end();
                t.end();
            }
            records.push(Record {
                id,
                program,
                generation,
                latency_ns,
                elapsed_us,
                request: line,
                outcome,
            });
        }
    }
    Ok((stream, records, Instant::now()))
}

/// What a client thread hands back: its stream (to continue in the next
/// window), its records, when it finished, and its spans.
type ClientResult = Result<(ClientStream, Vec<Record>, Instant, Option<Tracer>), String>;

/// Runs the closed loop for `seconds`; returns the records and the
/// measured window length.
pub fn window(
    server: &Server,
    streams: &mut Vec<ClientStream>,
    seconds: f64,
    ids: &AtomicU64,
    traced: bool,
    keep_raw: bool,
) -> Result<(Vec<Record>, f64, Option<Tracer>), String> {
    let barrier = Barrier::new(streams.len() + 1);
    let epoch = Instant::now();
    let addr = server.addr;
    let (begin, results): (Instant, Vec<ClientResult>) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .drain(..)
            .map(|stream| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(epoch));
                    client_loop(addr, stream, barrier, seconds, ids, tracer.as_mut(), keep_raw)
                        .map(|(s, r, end)| (s, r, end, tracer))
                })
            })
            .collect();
        barrier.wait();
        let begin = Instant::now();
        (
            begin,
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect(),
        )
    });
    let mut records = Vec::new();
    let mut end = begin;
    let mut merged = traced.then(|| Tracer::new(epoch));
    for r in results {
        let (stream, recs, client_end, tracer) = r?;
        streams.push(stream);
        records.extend(recs);
        end = end.max(client_end);
        if let (Some(m), Some(t)) = (merged.as_mut(), tracer) {
            m.absorb(t);
        }
    }
    Ok((records, (end - begin).as_secs_f64(), merged))
}

/// `records_since_checkpoint` from the server's stats.
pub fn records_since_checkpoint(server: &Server) -> Result<u64, String> {
    let v = server.request("{\"stats\": true}")?;
    v.get("durability")
        .and_then(|d| d.get("records_since_checkpoint"))
        .and_then(Val::num)
        .map(|n| n as u64)
        .ok_or_else(|| "stats lack durability.records_since_checkpoint".into())
}
