//! The host side of a run: the host clock, peak memory and the machine.
//!
//! This module is the only place the benchmark reads the host clock.
//! Host time is what the benchmark measures, next to the simulated
//! clock; no simulated result is ever derived from it.

// seal-lint: allow(no-wall-clock)
use std::time::Instant;

/// A running host-clock timer.
#[derive(Clone, Copy, Debug)]
// seal-lint: allow(no-wall-clock)
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        // seal-lint: allow(no-wall-clock)
        Stopwatch(Instant::now())
    }

    /// Host seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Host nanoseconds since the start.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine a result came from: logical CPUs and CPU model.
pub fn machine() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={cpus} cpu=\"{model}\"")
}
