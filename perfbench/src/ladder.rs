//! The open-loop offered-rate ladder of the serving workloads.
//!
//! Each rung serves the same number of operations from a freshly
//! preloaded store at one fixed, absolute offered rate (Poisson
//! arrivals, split evenly over the clients). Latency counts from each
//! request's scheduled arrival; the generator is never late, because
//! arrivals are scheduled on the simulated clock, not issued by a host
//! thread. The knee is the highest rung whose p99 meets the workload's
//! limit without a growing backlog.

use crate::stats::ms;
use lsm_core::Result;

/// A rung keeps up when it completes at least this share of its offered
/// rate (Poisson noise over a rung's operations is about 1%).
pub const MIN_ACHIEVED_SHARE: f64 = 0.95;

/// A rung keeps up when no queue ever held more than this share of the
/// rung's operations. A backlog that grows for the whole rung reaches
/// (1 − capacity/offered) of them; a stable queue's maximum grows only
/// with the logarithm of the operation count.
pub const MAX_DEPTH_SHARE: f64 = 0.01;

/// What one rung measured.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate, op/s (all clients together).
    pub offered: f64,
    /// Completed operations per simulated second.
    pub achieved: f64,
    /// Median arrival-to-completion latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile arrival-to-completion latency, ns.
    pub p99_ns: u64,
    /// Deepest queue seen at a service start.
    pub depth_max: usize,
    /// Operations served.
    pub ops: u64,
}

impl Rung {
    /// True when the rung shows no growing backlog: it completed (close
    /// to) what was offered and its queue stayed short.
    pub fn keeps_up(&self) -> bool {
        self.achieved >= MIN_ACHIEVED_SHARE * self.offered
            && self.depth_max as f64 <= MAX_DEPTH_SHARE * self.ops as f64
    }

    /// True when the rung keeps up and its p99 is within `limit_ms`.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.keeps_up() && ms(self.p99_ns) <= limit_ms
    }

    /// One line of the ladder table.
    pub fn describe(&self, limit_ms: f64) -> String {
        format!(
            "  rung {:>6.0} op/s: achieved {:>8.2} op/s, p50 {:>9.3} ms, p99 {:>9.3} ms, max queue {:>4}, {}",
            self.offered,
            self.achieved,
            ms(self.p50_ns),
            ms(self.p99_ns),
            self.depth_max,
            if self.meets(limit_ms) { "meets" } else { "misses" }
        )
    }
}

/// What one episode's climb served.
#[derive(Debug)]
pub struct Climb<R> {
    /// One summary per rate served, in ladder order.
    pub rungs: Vec<Rung>,
    /// Host set-up seconds of each rate's fresh stores.
    pub setup_s: Vec<f64>,
    /// The nominal rate's run.
    pub nominal: R,
}

/// Serves every rate of `ladder` in the checked episode and only the
/// `nominal` one in later episodes, which repeat it for host-time
/// samples. `run` serves one rate from fresh stores and returns its run,
/// its summary and its set-up seconds.
pub fn climb<R>(
    checked: bool,
    ladder: &[f64],
    nominal: f64,
    mut run: impl FnMut(f64) -> Result<(R, Rung, f64)>,
) -> Result<Climb<R>> {
    let rates = if checked {
        ladder
    } else {
        std::slice::from_ref(&nominal)
    };
    let (mut rungs, mut setup_s, mut nominal_run) = (Vec::new(), Vec::new(), None);
    for &rate in rates {
        let (r, rung, setup) = run(rate)?;
        rungs.push(rung);
        setup_s.push(setup);
        if rate == nominal {
            nominal_run = Some(r);
        }
    }
    Ok(Climb {
        rungs,
        setup_s,
        nominal: nominal_run.expect("the ladder holds the nominal rate"),
    })
}

/// The highest offered rate among `rungs` that meets `limit_ms`, or 0
/// when none does.
pub fn knee(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.meets(limit_ms))
        .map(|r| r.offered)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(offered: f64, achieved: f64, p99_ms: u64, depth_max: usize) -> Rung {
        Rung {
            offered,
            achieved,
            p50_ns: 0,
            p99_ns: p99_ms * 1_000_000,
            depth_max,
            ops: 1600,
        }
    }

    #[test]
    fn knee_is_the_highest_rung_meeting_the_limit() {
        let rungs = [
            rung(40.0, 40.1, 90, 3),
            rung(80.0, 79.5, 150, 5),
            rung(120.0, 119.0, 350, 9),
            rung(160.0, 140.0, 200, 9),
        ];
        assert_eq!(knee(&rungs, 250.0), 80.0);
        assert_eq!(knee(&rungs, 50.0), 0.0);
    }

    #[test]
    fn a_growing_backlog_misses_even_under_the_latency_limit() {
        assert!(!rung(80.0, 70.0, 100, 3).meets(250.0));
        assert!(!rung(80.0, 80.0, 100, 17).meets(250.0));
        assert!(rung(80.0, 80.0, 100, 16).meets(250.0));
        assert!(!rung(80.0, 79.0, 300, 3).meets(250.0));
    }
}
