//! The latency-under-load artifact behind `--serve-out` and
//! `--serve-check` (`BENCH_pr3.json`).
//!
//! Per main store: a closed-loop run (zero think time) measures the
//! saturation throughput, then open-loop Poisson points at fractions and
//! multiples of it trace the latency-vs-offered-load curve — throughput
//! plateaus at the knee while p99 and queue depth climb, and past the
//! knee the L0 slowdown/stop triggers surface as stall counts. Every
//! point runs on a freshly preloaded store so no state leaks between
//! load levels, and everything rides the simulated clock: two same-seed
//! sweeps serialize byte-identically.

use crate::BenchScale;
use lsm_core::Result;
use seal_front::{run_serve, ServeConfig, ServeResult};
use sealdb::{Store, StoreKind};
use workloads::{ArrivalProcess, WorkloadSpec};

/// Schema marker the checker requires at the top of the artifact.
pub const SERVE_SCHEMA: &str = "sealdb-serve-v1";

/// Virtual clients per serving run.
pub const CLIENTS: usize = 4;

/// Offered load as a fraction of the measured saturation throughput.
pub const LOAD_MULTIPLIERS: [f64; 4] = [0.5, 0.8, 1.0, 1.3];

/// Keys that must appear once per sweep point in a valid artifact.
const POINT_KEYS: [&str; 12] = [
    "\"offered_ops_per_sec\"",
    "\"throughput_ops_per_sec\"",
    "\"mean_ns\"",
    "\"p50_ns\"",
    "\"p95_ns\"",
    "\"p99_ns\"",
    "\"max_ns\"",
    "\"queue_depth_max\"",
    "\"stall_slowdowns\"",
    "\"stall_stops\"",
    "\"stall_memtables\"",
    "\"avg_group_size\"",
];

fn point_json(offered_per_client: f64, r: &ServeResult) -> String {
    format!(
        concat!(
            "{{\"offered_ops_per_sec\":{:.3},\"throughput_ops_per_sec\":{:.3},",
            "\"mean_ns\":{:.1},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},",
            "\"queue_delay_mean_ns\":{:.1},\"queue_depth_max\":{},\"queue_depth_mean\":{:.3},",
            "\"stall_slowdowns\":{},\"stall_stops\":{},\"stall_memtables\":{},\"stall_ns\":{},",
            "\"write_calls\":{},\"write_ops\":{},\"avg_group_size\":{:.3},",
            "\"idle_compactions\":{}}}"
        ),
        offered_per_client * CLIENTS as f64,
        r.throughput_ops_per_sec,
        r.latency.mean_ns,
        r.latency.p50_ns,
        r.latency.p95_ns,
        r.latency.p99_ns,
        r.latency.max_ns,
        r.queue_delay.mean_ns,
        r.queue_depth_max,
        r.queue_depth_mean,
        r.stalls.slowdown_count,
        r.stalls.stop_count,
        r.stalls.memtable_count,
        r.stalls.total_ns(),
        r.write_calls,
        r.write_ops,
        r.avg_group_size(),
        r.idle_compactions,
    )
}

/// One offered-load level of a store's sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Total offered load across all clients, ops per simulated second.
    pub offered_ops_per_sec: f64,
    /// Everything the serving run measured at this load.
    pub result: ServeResult,
}

/// One store's full sweep.
#[derive(Clone, Debug)]
pub struct StoreSweep {
    /// Display name of the store.
    pub store: &'static str,
    /// Closed-loop (zero think time) saturation throughput.
    pub saturation_ops_per_sec: f64,
    /// Open-loop points, in [`LOAD_MULTIPLIERS`] order.
    pub points: Vec<SweepPoint>,
}

fn sweep_store(kind: StoreKind, scale: &BenchScale) -> Result<StoreSweep> {
    let gen = scale.generator();
    let records = scale.load_records().max(1);
    let ops = scale.ycsb_ops.max(CLIENTS as u64);
    let spec = WorkloadSpec::serve_mix();
    let fresh = || -> Result<Store> {
        let mut store = crate::build_store(kind, scale)?;
        workloads::fill_random(&mut store, &gen, records, scale.seed)?;
        Ok(store)
    };

    // Saturation: closed loop, zero think time — the store serves as
    // fast as it can.
    let mut store = fresh()?;
    let closed = ServeConfig::new(
        spec,
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        CLIENTS,
        ops,
        records,
    )
    .with_seed(scale.seed);
    let sat = run_serve(&mut store, &gen, &closed)?;
    let t_sat = sat.throughput_ops_per_sec;

    let mut points = Vec::with_capacity(LOAD_MULTIPLIERS.len());
    for mult in LOAD_MULTIPLIERS {
        let per_client = t_sat * mult / CLIENTS as f64;
        let mut store = fresh()?;
        let cfg = ServeConfig::new(
            spec,
            ArrivalProcess::OpenLoopPoisson {
                ops_per_sec: per_client,
            },
            CLIENTS,
            ops,
            records,
        )
        .with_seed(scale.seed);
        let result = run_serve(&mut store, &gen, &cfg)?;
        points.push(SweepPoint {
            offered_ops_per_sec: per_client * CLIENTS as f64,
            result,
        });
    }
    Ok(StoreSweep {
        store: kind.name(),
        saturation_ops_per_sec: t_sat,
        points,
    })
}

/// Runs the sweep over [`StoreKind::MAIN`], one store per thread, and
/// returns the structured results in presentation order.
pub fn run_sweep(scale: &BenchScale) -> Result<Vec<StoreSweep>> {
    crate::per_store_parallel(&StoreKind::MAIN, |kind| sweep_store(kind, scale))
        .into_iter()
        .collect()
}

/// Serialises a sweep as the `BENCH_pr3.json` artifact.
pub fn sweep_to_json(scale: &BenchScale, sweeps: &[StoreSweep]) -> String {
    let stores = crate::join(sweeps, |sweep| {
        let points = crate::join(&sweep.points, |p| {
            point_json(p.offered_ops_per_sec / CLIENTS as f64, &p.result)
        });
        format!(
            "{{\"store\":\"{}\",\"saturation_ops_per_sec\":{:.3},\"points\":[{points}]}}",
            sweep.store, sweep.saturation_ops_per_sec,
        )
    });
    format!(
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"seed\":{},\"sstable\":{},\"records\":{},\"ops\":{},\"clients\":{},\"workload\":\"S\",\"stores\":[{stores}]}}\n",
        scale.seed,
        scale.sstable,
        scale.load_records().max(1),
        scale.ycsb_ops.max(CLIENTS as u64),
        CLIENTS,
    )
}

/// Runs the serving sweep over [`StoreKind::MAIN`] and returns the
/// artifact as a JSON string.
pub fn serve_sweep(scale: &BenchScale) -> Result<String> {
    Ok(sweep_to_json(scale, &run_sweep(scale)?))
}

/// Validates a serving artifact: schema marker, one sweep per main
/// store, every point key present the right number of times, and no
/// NaN/Inf anywhere. Returns the list of problems; empty means valid.
pub fn check_serve_json(content: &str) -> Vec<String> {
    let expected_stores = StoreKind::MAIN.len();
    let mut problems = crate::check_shape(
        content,
        SERVE_SCHEMA,
        &["\"seed\":", "\"clients\":", "\"ops\":"],
        &POINT_KEYS,
        expected_stores * LOAD_MULTIPLIERS.len(),
    );
    let stores = content.matches("\"store\":").count();
    if stores != expected_stores {
        problems.push(format!(
            "expected {expected_stores} store sweeps, found {stores}"
        ));
    }
    crate::push_key_counts(
        content,
        &["\"saturation_ops_per_sec\":"],
        expected_stores,
        &mut problems,
    );
    problems
}

/// The CI gate on the canonical `--serving` artifact: everything
/// [`check_serve_json`] checks, plus the headline property — SEALDB
/// sustains strictly the highest saturation throughput of the three
/// stores. The ranking is a claim at serving scale only (at smoke
/// scales SMRDB's small static bands can out-serve it), so the schema
/// check stays usable on its own.
pub fn gate_serve_json(content: &str) -> Vec<String> {
    let mut problems = check_serve_json(content);
    let named: Vec<(&str, f64)> = content
        .split("{\"store\":\"")
        .skip(1)
        .filter_map(|cell| {
            let (name, rest) = cell.split_once('"')?;
            Some((
                name,
                *crate::f64s_after(rest, "saturation_ops_per_sec").first()?,
            ))
        })
        .collect();
    match named.iter().find(|(name, _)| *name == "SEALDB") {
        Some(&(_, seal)) => {
            for &(name, sat) in named.iter().filter(|(name, _)| *name != "SEALDB") {
                if seal <= sat {
                    problems.push(format!(
                        "SEALDB saturation {seal:.3} not highest ({name} {sat:.3})"
                    ));
                }
            }
        }
        None => problems.push("missing the SEALDB saturation".to_string()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One sweep shared by every test that only reads the artifact (the
    /// sweep preloads 15 stores; running it once keeps the suite fast).
    fn artifact() -> &'static str {
        static ARTIFACT: OnceLock<String> = OnceLock::new();
        ARTIFACT.get_or_init(|| serve_sweep(&test_scale()).unwrap())
    }

    fn test_scale() -> BenchScale {
        let mut s = BenchScale::tiny();
        // Clear of the 16 MiB log zone (capacity = 12x load) with room
        // for the deferred-mode L0 buildup the sweep provokes.
        s.load_bytes = 4 << 20;
        s.capacity_ratio = 12;
        s.ycsb_ops = 400;
        s
    }

    #[test]
    fn sweep_is_valid_and_deterministic() {
        let a = artifact();
        let b = serve_sweep(&test_scale()).unwrap();
        assert_eq!(a, &b, "same-seed artifacts must be byte-identical");
        let problems = check_serve_json(a);
        assert!(problems.is_empty(), "artifact invalid: {problems:?}");
        for store in ["LevelDB", "SMRDB", "SEALDB"] {
            assert!(a.contains(&format!("\"store\":\"{store}\"")));
        }
    }

    #[test]
    fn latency_rises_with_offered_load() {
        let artifact = artifact();
        let p99 = crate::f64s_after(artifact, "p99_ns");
        let n = LOAD_MULTIPLIERS.len();
        assert_eq!(p99.len(), 3 * n);
        for (s, chunk) in p99.chunks(n).enumerate() {
            // Past the knee the tail must inflate: the overload point's
            // p99 strictly exceeds the half-load point's.
            assert!(
                chunk[n - 1] > chunk[0],
                "store {s}: p99 {chunk:?} did not rise with load"
            );
        }
        // Throughput cannot exceed what was offered (open loop serves
        // only what arrived).
        let offered = crate::f64s_after(artifact, "offered_ops_per_sec");
        let got = crate::f64s_after(artifact, "throughput_ops_per_sec");
        for (o, g) in offered.iter().zip(&got) {
            assert!(g <= &(o * 1.05), "throughput {g} exceeds offered {o}");
        }
    }

    #[test]
    fn checker_rejects_bad_artifacts() {
        assert!(!check_serve_json("{}").is_empty());
        let doc = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"seed\":1,\"clients\":4,\"ops\":9,\"stores\":[]}}"
        );
        assert!(check_serve_json(&doc)
            .iter()
            .any(|p| p.contains("store sweeps")));
        let doc = doc.replace("\"seed\":1", "\"seed\":NaN");
        assert!(check_serve_json(&doc)
            .iter()
            .any(|p| p.contains("non-finite")));
    }

    #[test]
    fn gate_rejects_sealdb_not_highest() {
        let a = artifact();
        let sat = crate::f64s_after(a, "saturation_ops_per_sec");
        let seal = format!("\"SEALDB\",\"saturation_ops_per_sec\":{:.3}", sat[2]);
        assert!(a.contains(&seal));
        let with_seal = |v: f64| {
            a.replace(
                &seal,
                &format!("\"SEALDB\",\"saturation_ops_per_sec\":{v:.3}"),
            )
        };
        let top = sat[0].max(sat[1]);
        assert!(gate_serve_json(&with_seal(top + 1.0)).is_empty());
        // A tie with LevelDB is not "strictly highest", nor is anything
        // below it.
        for lower in [sat[0], sat[0] - 1.0] {
            assert!(
                gate_serve_json(&with_seal(lower))
                    .iter()
                    .any(|p| p.contains("SEALDB saturation") && p.contains("LevelDB")),
                "{lower}"
            );
        }
        // The gate includes the schema check.
        assert!(!gate_serve_json("{}").is_empty());
    }
}
