//! `serve_vlog`: YCSB A (50% read, 50% update, zipfian) from 4 open-loop
//! Poisson clients through `seal_front::run_serve`, against a SEALDB with
//! band-sized value-log segments. Idle gaps run compaction and a 32 KiB
//! value-log GC step.
//!
//! The only workload where frontend queueing, group commit, deferred
//! compaction, stalls, pointer chases and value-log GC run.

use crate::common::{self, Stream};
use crate::host::Stopwatch;
use crate::ladder::{self, Rung};
use crate::probe::Probe;
use crate::stats::{ms, secs};
use crate::{Episode, EpisodeCtx, Metrics};
use lsm_core::Result;
use seal_front::{run_serve, ServeConfig, ServeResult};
use workloads::{ArrivalProcess, WorkloadSpec};

/// Records preloaded: 32 Ki × 1040 B ≈ 33 MiB.
pub const RECORDS: u64 = 32 << 10;
/// Operations served per rung.
pub const OPS: u64 = 40_000;
/// Open-loop clients.
pub const CLIENTS: usize = 4;
/// Offered rates of the ladder, op/s over all clients.
pub const LADDER: [f64; 4] = [40.0, 80.0, 120.0, 160.0];
/// The rung whose results are the workload's latency and throughput.
pub const NOMINAL: f64 = 80.0;
/// p99 latency limit, ms.
pub const LIMIT_MS: f64 = 500.0;
/// Value-log GC budget per idle gap (the budget the frontend tests use).
pub const GC_BYTES: u64 = 32 << 10;

/// One rung from a fresh store: set-up seconds, serve seconds, the
/// result, the counters before and after serving, and the store.
struct RungRun {
    setup_s: f64,
    serve_s: f64,
    result: ServeResult,
    before: Probe,
    after: Probe,
    store: sealdb::Store,
}

fn run_rung(ctx: &mut EpisodeCtx, rate: f64) -> Result<RungRun> {
    let gen = common::generator(ctx.seed);
    let t = Stopwatch::start();
    let span = ctx
        .tracer
        .as_deref_mut()
        .map(|tr| tr.enter("sealdb.preload", 0, 0));
    let mut store = common::sealdb_config(RECORDS).with_default_vlog().build()?;
    common::preload(&mut store, &gen, RECORDS, ctx.seed)?;
    if let (Some(tr), Some(s)) = (ctx.tracer.as_deref_mut(), span) {
        tr.exit(s, store.clock_ns(), "");
    }
    let setup_s = t.secs();

    let mut cfg = ServeConfig::new(
        WorkloadSpec::a(),
        ArrivalProcess::OpenLoopPoisson {
            ops_per_sec: rate / CLIENTS as f64,
        },
        CLIENTS,
        OPS,
        RECORDS,
    )
    .with_seed(common::stream_seed(ctx.seed, Stream::Ops));
    cfg.idle_vlog_gc_bytes = GC_BYTES;
    let before = Probe::of(&store);
    let now = store.clock_ns();
    let span = ctx
        .tracer
        .as_deref_mut()
        .map(|tr| tr.enter("frontend.run_serve", 0, now));
    let t = Stopwatch::start();
    let result = run_serve(&mut store, &gen, &cfg)?;
    let serve_s = t.secs();
    if let (Some(tr), Some(s)) = (ctx.tracer.as_deref_mut(), span) {
        tr.exit(s, store.clock_ns(), "");
    }
    let after = Probe::of(&store);
    Ok(RungRun {
        setup_s,
        serve_s,
        result,
        before,
        after,
        store,
    })
}

fn rung_of(r: &ServeResult, offered: f64) -> Rung {
    Rung {
        offered,
        achieved: r.throughput_ops_per_sec,
        p50_ns: r.latency.p50_ns,
        p99_ns: r.latency.p99_ns,
        depth_max: r.queue_depth_max,
        ops: r.ops,
    }
}

pub fn episode(ctx: &mut EpisodeCtx) -> Result<Episode> {
    let checked = ctx.checked;
    let climb = ladder::climb(checked, &LADDER, NOMINAL, |rate| {
        let run = run_rung(ctx, rate)?;
        let rung = rung_of(&run.result, rate);
        let setup_s = run.setup_s;
        Ok((run, rung, setup_s))
    })?;
    let mut run = climb.nominal;
    let mut notes = Vec::new();
    let r = run.result.clone();

    let mut sim = Metrics::default();
    sim.put("sim_ops_per_s", r.throughput_ops_per_sec, "op/s");
    sim.put("sim_p50_ms", ms(r.latency.p50_ns), "ms");
    sim.put("sim_p99_ms", ms(r.latency.p99_ns), "ms");
    sim.put("mwa", run.after.mwa_since(&run.before), "ratio");
    sim.put("space_amp", run.after.space_amp(RECORDS), "ratio");
    run.after
        .layer_metrics(&run.before, r.ops, r.hits + r.misses, &mut sim);
    sim.put("vlog.gc_steps", r.vlog_gc_steps as f64, "count");
    sim.put(
        "frontend.queue_delay_ms.p50",
        ms(r.queue_delay.p50_ns),
        "ms",
    );
    sim.put(
        "frontend.queue_delay_ms.p99",
        ms(r.queue_delay.p99_ns),
        "ms",
    );
    sim.put("frontend.avg_group_size", r.avg_group_size(), "ops");
    sim.put(
        "frontend.idle_compactions",
        r.idle_compactions as f64,
        "count",
    );
    sim.put("frontend.failed_reads", r.failed_reads as f64, "count");
    sim.put("frontend.abandoned_ops", r.abandoned_ops as f64, "count");

    let mut host = Metrics::default();
    if ctx.tracer.is_some() {
        host.put("frontend.serve_host_s", run.serve_s, "s");
        host.put("sealdb.preload_host_s", run.setup_s, "s");
    }

    let (knee, oracle) = if checked {
        notes.push(format!(
            "serve_vlog: {RECORDS} records, {OPS} ops per rung, {CLIENTS} clients, limit p99 <= {LIMIT_MS} ms"
        ));
        notes.extend(climb.rungs.iter().map(|g| g.describe(LIMIT_MS)));
        let gen = common::generator(ctx.seed);
        let bad = common::read_back(&mut run.store, &gen, RECORDS)?;
        (
            Some(ladder::knee(&climb.rungs, LIMIT_MS)),
            Some((RECORDS, bad)),
        )
    } else {
        (None, None)
    };
    notes.push(format!(
        "serve_vlog nominal: simulated {:.3} s, {} GC steps",
        secs(r.sim_ns),
        r.vlog_gc_steps
    ));
    // Abandoned operations are the ones never completed.
    let failed = r.failed_reads + (OPS - r.ops);
    Ok(Episode {
        setup_s: climb.setup_s,
        measured_s: run.serve_s,
        ops: OPS,
        failed,
        sim,
        host,
        oracle,
        knee,
        notes,
    })
}
