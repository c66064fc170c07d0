//! `load_random`: one closed-loop client loads an empty SEALDB in random
//! key order — the paper's headline workload (Fig. 8, 10, 12).
//!
//! The write path does all the work: memtable, WAL and CRC, flush and
//! table build, compaction merge, dynamic-band and set placement, and
//! the SMR write model.

use crate::common::{self, Stream};
use crate::host::Stopwatch;
use crate::probe::Probe;
use crate::stats::{median, ms, quantile_u64, ratio, secs};
use crate::{Episode, EpisodeCtx, Metrics};
use lsm_core::Result;
use sealdb::{Store, StoreConfig};

/// Records loaded: 64 Ki × 1040 B ≈ 65 MiB, enough for L3 and ~500
/// compactions at 256 KiB tables.
pub const RECORDS: u64 = 64 << 10;

/// Puts between clock marks.
pub const STEP: u64 = 64;

/// Puts per latency window, a multiple of [`STEP`]. The simulator
/// charges no CPU time, so 97% of puts (those that only reach the
/// memtable and the 64 KiB WAL buffer) complete in zero simulated time:
/// the per-put median is 0 and the per-put p99 is the fixed cost of one
/// WAL append. Latency is therefore the mean simulated time per put over
/// every window of this many consecutive puts (four memtables' worth),
/// sliding in steps of [`STEP`] puts, so that it carries the flush and
/// compaction work those puts pay for.
pub const WINDOW: u64 = 1024;

/// Store builds timed per episode for `setup_s`.
const SETUP_BUILDS: usize = 33;

/// Classifies a put by the work it triggered, from the public
/// `flush_count()` and `compaction_log().len()` before and after it.
fn put_class(flushes: (u64, u64), compactions: (usize, usize)) -> &'static str {
    if compactions.1 > compactions.0 {
        "compaction"
    } else if flushes.1 > flushes.0 {
        "flush"
    } else {
        "plain"
    }
}

/// Builds `cfg` `reps` times and returns the last store with the median
/// host seconds of one build.
fn build_timed(cfg: &StoreConfig, reps: usize) -> Result<(Store, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut store = None;
    for _ in 0..reps.max(1) {
        drop(store.take());
        let t = Stopwatch::start();
        store = Some(cfg.build()?);
        times.push(t.secs());
    }
    Ok((store.expect("built at least once"), median(&times)))
}

pub fn episode(ctx: &mut EpisodeCtx) -> Result<Episode> {
    let gen = common::generator(ctx.seed);
    let order = common::stream_seed(ctx.seed, Stream::LoadOrder);

    // Set-up is only the build of an empty store, well under a
    // millisecond; time several builds so the median is steady.
    let (mut store, setup_s) = build_timed(&common::sealdb_config(RECORDS), SETUP_BUILDS)?;

    let before = Probe::of(&store);
    let clock0 = store.clock_ns();
    let mut marks: Vec<u64> = Vec::with_capacity((RECORDS / STEP) as usize + 1);
    marks.push(clock0);
    let t = Stopwatch::start();
    for i in 0..RECORDS {
        let j = workloads::permute(i, RECORDS, order);
        match ctx.tracer.as_deref_mut() {
            None => {
                let (k, v) = (gen.key(j), gen.value(j));
                store.put(&k, &v)?;
            }
            Some(tr) => {
                let now = store.clock_ns();
                let op = tr.enter("op", i, now);
                let g = tr.enter("workloads.gen", i, now);
                let (k, v) = (gen.key(j), gen.value(j));
                tr.exit(g, now, "");
                let flushes = store.db.flush_count();
                let compactions = store.db.compaction_log().len();
                let p = tr.enter("sealdb.put", i, now);
                store.put(&k, &v)?;
                let now = store.clock_ns();
                let class = put_class(
                    (flushes, store.db.flush_count()),
                    (compactions, store.db.compaction_log().len()),
                );
                tr.exit(p, now, class);
                tr.exit(op, now, "");
            }
        }
        if (i + 1) % STEP == 0 && i + 1 < RECORDS {
            marks.push(store.clock_ns());
        }
    }
    store.flush()?;
    let measured_s = t.secs();
    let sim_ns = store.clock_ns() - clock0;
    marks.push(store.clock_ns());
    let after = Probe::of(&store);

    let span = (WINDOW / STEP) as usize;
    let mut window_ns: Vec<u64> = marks
        .windows(span + 1)
        .map(|w| (w[span] - w[0]) / WINDOW)
        .collect();
    let mut sim = Metrics::default();
    sim.put("sim_ops_per_s", ratio(RECORDS as f64, secs(sim_ns)), "op/s");
    sim.put("sim_p50_ms", ms(quantile_u64(&mut window_ns, 0.50)), "ms");
    sim.put("sim_p99_ms", ms(quantile_u64(&mut window_ns, 0.99)), "ms");
    sim.put("mwa", after.mwa_since(&before), "ratio");
    sim.put("space_amp", after.space_amp(RECORDS), "ratio");
    after.layer_metrics(&before, RECORDS, 0, &mut sim);

    let mut host = Metrics::default();
    if let Some(tr) = ctx.tracer.as_deref() {
        let self_ns = tr.self_times();
        host.put(
            "workloads.gen_host_s",
            secs(self_ns.get("workloads.gen").copied().unwrap_or(0)),
            "s",
        );
        let mut puts = tr.durations("sealdb.put", None);
        host.put(
            "sealdb.put_host_us.p50",
            quantile_u64(&mut puts, 0.50) as f64 / 1e3,
            "us",
        );
        host.put(
            "sealdb.put_host_us.p99",
            quantile_u64(&mut puts, 0.99) as f64 / 1e3,
            "us",
        );
        for class in ["plain", "flush", "compaction"] {
            let total: u64 = tr.durations("sealdb.put", Some(class)).iter().sum();
            host.put_owned(format!("sealdb.put_host_s.{class}"), secs(total), "s");
        }
    }

    let oracle = if ctx.checked {
        Some((RECORDS, common::read_back(&mut store, &gen, RECORDS)?))
    } else {
        None
    };
    let notes = vec![format!(
        "load_random: {RECORDS} puts, {} compactions, simulated {:.3} s, latency over {} sliding windows of {WINDOW} puts",
        sim.get("lsm-core.compactions").unwrap_or(0.0),
        secs(sim_ns),
        window_ns.len(),
    )];
    // A closed loop runs at its saturation rate, the highest it sustains.
    let knee = sim.get("sim_ops_per_s");
    Ok(Episode {
        setup_s: vec![setup_s],
        measured_s,
        ops: RECORDS,
        failed: 0,
        sim,
        host,
        oracle,
        knee,
        notes,
    })
}
