//! # perfbench — the repository benchmark
//!
//! One process runs one named workload against the public entry points
//! of the SEALDB reproduction and prints, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload load_random --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats *episodes*. Each episode builds and preloads fresh
//! stores (timed as set-up), runs the workload's measured phase (timed
//! with the host clock) and collects the simulated-clock results. The
//! first episode is the checked one: it runs the workload's correctness
//! oracle and fixes the reference simulated results, which every later
//! episode must reproduce bit-for-bit. Episodes repeat until `--seconds`
//! of measured host time have passed and enough samples exist for the
//! medians. With `--trace 1`, untraced and traced episodes alternate; the
//! traced ones give the per-layer metrics and the ratio of the two
//! gives `trace.overhead`. See `README.md` for the metric definitions.

mod common;
mod host;
mod ladder;
mod load_random;
mod probe;
mod read_mostly;
mod serve_cluster;
mod serve_vlog;
mod stats;
mod trace;

use stats::median;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics (`--trace 0`), with units. Mirrors `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 9] = [
    ("host_ops_per_s", "op/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_ops_per_s", "op/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_knee_ops_per_s", "op/s"),
    ("mwa", "ratio"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units. Mirrors `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 60] = [
    ("workloads.gen_host_s", "s"),
    ("sealdb.put_host_us.p50", "us"),
    ("sealdb.put_host_us.p99", "us"),
    ("sealdb.put_host_s.plain", "s"),
    ("sealdb.put_host_s.flush", "s"),
    ("sealdb.put_host_s.compaction", "s"),
    ("sealdb.get_host_us.p50", "us"),
    ("sealdb.get_host_us.p99", "us"),
    ("sealdb.scan_host_us.p50", "us"),
    ("sealdb.scan_host_us.p99", "us"),
    ("sealdb.preload_host_s", "s"),
    ("lsm-core.wa", "ratio"),
    ("lsm-core.flushes", "count"),
    ("lsm-core.compactions", "count"),
    ("lsm-core.trivial_moves", "count"),
    ("lsm-core.compaction_out_mib", "MiB"),
    ("lsm-core.compaction_sim_s", "s"),
    ("lsm-core.block_cache_hits", "count"),
    ("lsm-core.block_cache_misses", "count"),
    ("lsm-core.block_cache_hit_ratio", "ratio"),
    ("lsm-core.table_cache_hit_ratio", "ratio"),
    ("lsm-core.stalls", "count"),
    ("lsm-core.stall_sim_s", "s"),
    ("lsm-core.wal_sync_sim_s", "s"),
    ("placement.awa", "ratio"),
    ("placement.sets_created", "count"),
    ("placement.avg_set_mib", "MiB"),
    ("placement.high_water_mib", "MiB"),
    ("placement.free_regions", "count"),
    ("smr-sim.sim_s.wal", "s"),
    ("smr-sim.sim_s.flush", "s"),
    ("smr-sim.sim_s.compaction_read", "s"),
    ("smr-sim.sim_s.compaction_write", "s"),
    ("smr-sim.sim_s.get", "s"),
    ("smr-sim.sim_s.scan", "s"),
    ("smr-sim.sim_s.vlog_append", "s"),
    ("smr-sim.sim_s.vlog_gc", "s"),
    ("smr-sim.seeks_per_op", "seeks/op"),
    ("smr-sim.device_read_bytes_per_get", "B/get"),
    ("smr-sim.band_rmw_events", "count"),
    ("vlog.appended_mib", "MiB"),
    ("vlog.relocated_mib", "MiB"),
    ("vlog.reclaimed_mib", "MiB"),
    ("vlog.relocated_per_appended", "ratio"),
    ("vlog.gc_steps", "count"),
    ("vlog.ptr_chase_sim_s", "s"),
    ("frontend.serve_host_s", "s"),
    ("frontend.queue_delay_ms.p50", "ms"),
    ("frontend.queue_delay_ms.p99", "ms"),
    ("frontend.avg_group_size", "ops"),
    ("frontend.idle_compactions", "count"),
    ("frontend.failed_reads", "count"),
    ("frontend.abandoned_ops", "count"),
    ("shard.serve_host_s", "s"),
    ("shard.load_host_s", "s"),
    ("shard.queue_delay_ms.p99", "ms"),
    ("shard.ops_imbalance", "ratio"),
    ("shard.avg_group_size", "ops"),
    ("shard.idle_compactions", "count"),
    ("trace.overhead", "ratio"),
];

/// Fewest untraced (and, with `--trace 1`, traced) episodes a run
/// takes, whatever `--seconds` says, so every host median has samples.
const MIN_EPISODES: usize = 3;

/// An ordered list of named metric values with units.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name`; a name recorded twice keeps the last value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_owned(name.to_string(), value, unit);
    }

    /// [`Metrics::put`] for an owned name.
    pub fn put_owned(&mut self, name: String, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(e) => *e = (name, value, unit),
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }

    /// Every entry, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// Names whose values differ bit-for-bit from `other` (or that one
    /// side lacks).
    fn differences(&self, other: &Metrics) -> Vec<String> {
        let mut out = Vec::new();
        for (name, v, _) in self.iter() {
            match other.get(name) {
                Some(w) if w.to_bits() == v.to_bits() => {}
                Some(w) => out.push(format!("{name}: {v} vs {w}")),
                None => out.push(format!("{name}: missing")),
            }
        }
        for (name, _, _) in other.iter() {
            if self.get(name).is_none() {
                out.push(format!("{name}: missing"));
            }
        }
        out
    }
}

/// What one episode of a workload measured.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host seconds of each store build and preload in the episode.
    pub setup_s: Vec<f64>,
    /// Host seconds of the measured phase.
    pub measured_s: f64,
    /// Operations attempted in the measured phase.
    pub ops: u64,
    /// Operations that returned an error, were abandoned or failed a read.
    pub failed: u64,
    /// Simulated-clock results and counts; bit-identical in every
    /// episode of a run.
    pub sim: Metrics,
    /// Host per-layer metrics (traced episodes only).
    pub host: Metrics,
    /// Correctness oracle of the checked episode: (checked, mismatched).
    pub oracle: Option<(u64, u64)>,
    /// The highest offered rate the workload sustains within its latency
    /// limit: the ladder's knee on a serving workload (checked episode
    /// only), the saturation throughput of a closed loop.
    pub knee: Option<f64>,
    /// Human-readable detail printed once (e.g. the ladder table).
    pub notes: Vec<String>,
}

/// What a workload's episode function is told.
#[derive(Debug)]
pub struct EpisodeCtx<'a> {
    /// The workload seed.
    pub seed: u64,
    /// True for the checked (first) episode.
    pub checked: bool,
    /// The span recorder, in traced episodes.
    pub tracer: Option<&'a mut Tracer>,
}

type EpisodeFn = fn(&mut EpisodeCtx) -> lsm_core::Result<Episode>;

/// One benchmark workload.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    run: EpisodeFn,
    /// Whether the oracle runs inside the measured loop, which makes the
    /// checked episode's host time unusable.
    inline_oracle: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "load_random",
        run: load_random::episode,
        inline_oracle: false,
    },
    Workload {
        name: "read_mostly",
        run: read_mostly::episode,
        inline_oracle: true,
    },
    Workload {
        name: "serve_vlog",
        run: serve_vlog::episode,
        inline_oracle: false,
    },
    Workload {
        name: "serve_cluster",
        run: serve_cluster::episode,
        inline_oracle: false,
    },
];

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run produced, before it is printed.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    problems: Vec<String>,
    notes: Vec<String>,
    tracer: Option<Tracer>,
}

fn run(args: &Args) -> lsm_core::Result<Report> {
    let w = args.workload;
    let mut tracer = args.trace.then(Tracer::new);
    let mut first: Option<Episode> = None;
    let mut problems = Vec::new();
    // Host op/s of each timed episode: [untraced, traced].
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut setups: Vec<f64> = Vec::new();
    let mut host_layers: Vec<Metrics> = Vec::new();
    let (mut attempted, mut failed, mut measured) = (0u64, 0u64, 0.0f64);
    for i in 0.. {
        let traced = args.trace && i % 2 == 1;
        if traced {
            tracer.as_mut().expect("tracing on").clear();
        }
        let mut ctx = EpisodeCtx {
            seed: args.seed,
            checked: i == 0,
            tracer: if traced { tracer.as_mut() } else { None },
        };
        let ep = (w.run)(&mut ctx)?;
        attempted += ep.ops;
        failed += ep.failed;
        measured += ep.measured_s;
        // An oracle inside the measured loop spoils the checked episode's
        // host time; every other episode is a timing sample.
        if !(i == 0 && w.inline_oracle) {
            rates[usize::from(traced)].push(ep.ops as f64 / ep.measured_s);
            if traced {
                host_layers.push(ep.host.clone());
            } else {
                setups.extend(&ep.setup_s);
            }
        }
        match &first {
            None => first = Some(ep),
            Some(reference) => problems.extend(
                reference
                    .sim
                    .differences(&ep.sim)
                    .into_iter()
                    .map(|d| format!("episode {i} is not deterministic: {d}")),
            ),
        }
        let enough =
            rates[0].len() >= MIN_EPISODES && (!args.trace || rates[1].len() >= MIN_EPISODES);
        if enough && measured >= args.seconds {
            break;
        }
    }

    let first = first.expect("at least one episode ran");
    let (checked, mismatched) = first.oracle.expect("the checked episode runs the oracle");
    if mismatched > 0 {
        problems.push(format!("oracle: {mismatched} of {checked} results wrong"));
        failed += mismatched;
    }
    if failed > 0 {
        problems.push(format!("{failed} operations failed"));
    }

    let mut m = Metrics::default();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let host: Vec<f64> = host_layers.iter().filter_map(|h| h.get(name)).collect();
            // A layer this workload never calls into reads 0.
            let v = first.sim.get(name).unwrap_or_else(|| {
                if host.is_empty() {
                    0.0
                } else {
                    median(&host)
                }
            });
            m.put(name, v, unit);
        }
        m.put(
            "trace.overhead",
            median(&rates[0]) / median(&rates[1]) - 1.0,
            "ratio",
        );
    } else {
        m.put("host_ops_per_s", median(&rates[0]), "op/s");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mib", host::peak_rss_mib(), "MiB");
        for (name, unit) in END_TO_END {
            if let Some(v) = first.sim.get(name) {
                m.put(name, v, unit);
            }
        }
        if let Some(knee) = first.knee {
            m.put("sim_knee_ops_per_s", knee, "op/s");
        }
    }
    let mut notes = first.notes;
    notes.push(format!(
        "failed_op_ratio {} ratio ({failed} failed of {attempted} attempted)",
        stats::ratio(failed as f64, attempted as f64)
    ));
    notes.push(format!(
        "timed episodes: {} untraced, {} traced; measured host time {measured:.3} s",
        rates[0].len(),
        rates[1].len(),
    ));
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m,
        problems,
        notes,
        tracer,
    })
}

/// Orders `m` as `table` lists it and fails if a name is missing or not
/// finite.
fn select(m: &Metrics, table: &[(&'static str, &'static str)]) -> Result<Metrics, String> {
    let mut out = Metrics::default();
    for &(name, unit) in table {
        let v = m
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        out.put(name, v, unit);
    }
    Ok(out)
}

fn json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let started = host::Stopwatch::start();
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match select(&report.metrics, table) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let header = vec![
        format!(
            "workload={} seed={} trace={}",
            args.workload.name, args.seed, args.trace
        ),
        format!("machine: {}", host::machine()),
    ];
    for line in header.iter().chain(&report.notes) {
        println!("{line}");
    }
    if let Some(tracer) = &report.tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload.name, args.seed));
        match tracer.write_tsv(&path, &header) {
            Ok(()) => println!("spans of the last traced episode: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    for (name, v, unit) in metrics.iter() {
        println!("{name:<36} {v:>16.6} {unit}");
    }
    for p in &report.problems {
        println!("PROBLEM: {p}");
    }
    println!("wall time {:.1} s", started.secs());
    println!(
        "{}",
        json(report.correct, report.attempted, report.failed, &metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric entry in `BENCHMARK.json`.
    fn declared_metrics() -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let field = |entry: &str, key: &str| {
            let start = entry.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = entry[start..].find('"')?;
            Some(entry[start..start + len].to_string())
        };
        text.split('{')
            .filter_map(|entry| {
                let entry = entry.split('}').next()?;
                Some((field(entry, "name")?, field(entry, "unit")?))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let mut ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let mut declared = declared_metrics();
        ours.sort();
        declared.sort();
        assert_eq!(ours, declared);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        assert_eq!(
            json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn differences_compare_bit_for_bit() {
        let mut a = Metrics::default();
        a.put("x", 1.0, "s");
        let mut b = a.clone();
        assert!(a.differences(&b).is_empty());
        b.put("x", 1.0 + f64::EPSILON, "s");
        assert_eq!(a.differences(&b).len(), 1);
        b.put("y", 2.0, "s");
        assert_eq!(a.differences(&b).len(), 2);
    }
}
