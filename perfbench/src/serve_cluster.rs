//! `serve_cluster`: 4 SEALDB shards loaded through
//! `ShardCluster::load`, then serve mix S (50% read, 50% insert,
//! zipfian) from 16 open-loop Poisson clients through
//! `seal_shard::serve`.
//!
//! Measures the router, the per-shard queues and cross-shard imbalance —
//! the composition every deployment of the store goes through.

use crate::common::{self, Stream, SSTABLE_BYTES};
use crate::host::Stopwatch;
use crate::ladder::{self, Rung};
use crate::probe::Probe;
use crate::stats::{ms, secs};
use crate::{Episode, EpisodeCtx, Metrics};
use lsm_core::Result;
use seal_shard::{serve, ClusterServeConfig, ClusterServeResult, ShardCluster, ShardConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

/// Shards in the cluster.
pub const SHARDS: usize = 4;
/// Records loaded: 32 Ki × 1040 B ≈ 33 MiB over all shards.
pub const RECORDS: u64 = 32 << 10;
/// Operations served per rung.
pub const OPS: u64 = 200_000;
/// Warm-up operations served at the lowest rung's rate before each
/// measured rung (part of set-up): a freshly loaded cluster starts with
/// cold block caches, and the backlog it builds while they fill would
/// otherwise dominate every rung's tail.
pub const WARMUP_OPS: u64 = 10_000;
/// Open-loop clients (cluster-wide).
pub const CLIENTS: usize = 16;
/// Offered rates of the ladder, op/s over all clients.
pub const LADDER: [f64; 4] = [320.0, 640.0, 960.0, 1280.0];
/// The rung whose results are the workload's latency and throughput.
pub const NOMINAL: f64 = 640.0;
/// p99 latency limit, ms.
pub const LIMIT_MS: f64 = 500.0;

fn probe(cluster: &ShardCluster) -> Probe {
    let probes: Vec<Probe> = cluster
        .active_shards()
        .into_iter()
        .map(|idx| Probe::of(cluster.store(idx)))
        .collect();
    Probe::sum(&probes)
}

/// One rung from a freshly loaded cluster.
struct RungRun {
    load_s: f64,
    setup_s: f64,
    serve_s: f64,
    result: ClusterServeResult,
    before: Probe,
    after: Probe,
    cluster: ShardCluster,
}

/// An open-loop serving run of mix S at `rate` over `records` records.
fn serve_config(
    ctx: &EpisodeCtx,
    rate: f64,
    ops: u64,
    records: u64,
    stream: u64,
) -> ClusterServeConfig {
    ClusterServeConfig::new(
        WorkloadSpec::serve_mix(),
        ArrivalProcess::OpenLoopPoisson {
            ops_per_sec: rate / CLIENTS as f64,
        },
        CLIENTS,
        ops,
        records,
    )
    .with_seed(common::stream_seed(ctx.seed, Stream::Ops) ^ stream)
}

fn run_rung(ctx: &mut EpisodeCtx, rate: f64) -> Result<RungRun> {
    let gen = common::generator(ctx.seed);
    // Each shard holds a quarter of the data on a disk ten times that.
    let cfg = ShardConfig::new(
        SHARDS,
        SSTABLE_BYTES,
        common::capacity(RECORDS / SHARDS as u64),
    )
    .with_seed(common::stream_seed(ctx.seed, Stream::LoadOrder));
    let t = Stopwatch::start();
    let span = ctx
        .tracer
        .as_deref_mut()
        .map(|tr| tr.enter("shard.load", 0, 0));
    let mut cluster = ShardCluster::new(cfg)?;
    cluster.load(&gen, RECORDS)?;
    if let (Some(tr), Some(s)) = (ctx.tracer.as_deref_mut(), span) {
        tr.exit(s, cluster.now_ns(), "");
    }
    let load_s = t.secs();
    let warm = serve(
        &mut cluster,
        &gen,
        &serve_config(ctx, LADDER[0], WARMUP_OPS, RECORDS, 1),
    )?;
    let setup_s = t.secs();

    let serve_cfg = serve_config(ctx, rate, OPS, warm.records_after, 0);
    let before = probe(&cluster);
    let now = cluster.now_ns();
    let span = ctx
        .tracer
        .as_deref_mut()
        .map(|tr| tr.enter("shard.serve", 0, now));
    let t = Stopwatch::start();
    let result = serve(&mut cluster, &gen, &serve_cfg)?;
    let serve_s = t.secs();
    if let (Some(tr), Some(s)) = (ctx.tracer.as_deref_mut(), span) {
        tr.exit(s, cluster.now_ns(), "");
    }
    let after = probe(&cluster);
    Ok(RungRun {
        load_s,
        setup_s,
        serve_s,
        result,
        before,
        after,
        cluster,
    })
}

fn rung_of(r: &ClusterServeResult, offered: f64) -> Rung {
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
    sim.put("space_amp", run.after.space_amp(r.records_after), "ratio");
    run.after
        .layer_metrics(&run.before, r.ops, r.hits + r.misses, &mut sim);
    sim.put("shard.queue_delay_ms.p99", ms(r.queue_delay.p99_ns), "ms");
    sim.put("shard.ops_imbalance", r.ops_imbalance(), "ratio");
    sim.put("shard.avg_group_size", r.avg_group_size(), "ops");
    sim.put("shard.idle_compactions", r.idle_compactions as f64, "count");

    let mut host = Metrics::default();
    if ctx.tracer.is_some() {
        host.put("shard.serve_host_s", run.serve_s, "s");
        host.put("shard.load_host_s", run.load_s, "s");
        host.put("sealdb.preload_host_s", run.load_s, "s");
    }

    let (knee, oracle) = if checked {
        notes.push(format!(
            "serve_cluster: {SHARDS} shards, {RECORDS} records, {OPS} ops per rung, {CLIENTS} clients, limit p99 <= {LIMIT_MS} ms"
        ));
        notes.extend(climb.rungs.iter().map(|g| g.describe(LIMIT_MS)));
        let gen = common::generator(ctx.seed);
        let audit = run.cluster.audit(&gen, r.records_after)?;
        (
            Some(ladder::knee(&climb.rungs, LIMIT_MS)),
            Some((audit.checked, audit.lost)),
        )
    } else {
        (None, None)
    };
    notes.push(format!(
        "serve_cluster nominal: simulated {:.3} s, per-shard ops {:?}",
        secs(r.sim_ns),
        r.per_shard_ops
    ));
    Ok(Episode {
        setup_s: climb.setup_s,
        measured_s: run.serve_s,
        ops: OPS,
        failed: OPS - r.ops,
        sim,
        host,
        oracle,
        knee,
        notes,
    })
}
