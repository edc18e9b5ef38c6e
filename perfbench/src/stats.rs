//! Percentiles, the end-to-end metrics of a window, memory, and the
//! machine fingerprint.

use std::fmt::Write as _;

use crate::check::Record;

/// A percentile with the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub value_us: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `ns`, in microseconds. Refused when
/// fewer than ten samples lie beyond it: such a figure would be no tail.
pub fn percentile(ns: &mut [u64], q: f64, what: &str) -> Result<Pct, String> {
    ns.sort_unstable();
    let n = ns.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "{what}: p{} refused, only {beyond} of {n} samples lie beyond it (need 10)",
            (q * 100.0).round()
        ));
    }
    Ok(Pct { value_us: ns[rank - 1] as f64 / 1000.0, samples: n, beyond })
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn median_u64(values: &[u64]) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&mut v)
}

/// The end-to-end figures of one timed window.
#[derive(Debug, Clone)]
pub struct Window {
    pub query_p50: Pct,
    pub query_p90: Pct,
    pub mutation_p50: Pct,
    pub mutation_p90: Pct,
    pub ops_per_s: f64,
    pub seconds: f64,
}

impl Window {
    pub fn of(records: &[Record], seconds: f64) -> Result<Window, String> {
        let mut q: Vec<u64> =
            records.iter().filter(|r| r.is_query()).map(|r| r.latency_ns).collect();
        let mut m: Vec<u64> =
            records.iter().filter(|r| !r.is_query()).map(|r| r.latency_ns).collect();
        Ok(Window {
            query_p50: percentile(&mut q, 0.5, "query latency")?,
            query_p90: percentile(&mut q, 0.9, "query latency")?,
            mutation_p50: percentile(&mut m, 0.5, "mutation latency")?,
            mutation_p90: percentile(&mut m, 0.9, "mutation latency")?,
            ops_per_s: records.len() as f64 / seconds,
            seconds,
        })
    }

    /// The latency figures by metric name.
    pub fn latencies(&self) -> [(&'static str, Pct); 4] {
        [
            ("query_p50_us", self.query_p50),
            ("query_p90_us", self.query_p90),
            ("mutation_p50_us", self.mutation_p50),
            ("mutation_p90_us", self.mutation_p90),
        ]
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores, CPU model, rustc version and git revision. The last two come
/// from the launcher (`run.py`), which sees the toolchain and checkout.
pub fn fingerprint_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"cores\":{cores},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{}}}",
        crate::json::quote(&cpu),
        crate::json::quote(&env("PERFBENCH_RUSTC")),
        crate::json::quote(&env("PERFBENCH_GIT_REV"))
    );
    out
}

/// Metrics in output order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", members.join(","))
    }
}

/// A finite JSON number with all its digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
