//! Cluster-level determinism: the multi-shard router, serving loop, and
//! migration machinery must replay byte-identically from a (config,
//! seed) pair — the property `BENCH_pr7.json` regeneration stands on —
//! a mid-run shard split must never lose an acknowledged key, and a
//! one-shard cluster must serve exactly like a single store.

use bench::{shard_run, BenchScale};
use seal_front::{run_serve, ServeConfig};
use seal_shard::{serve, ClusterServeConfig, ShardCluster, ShardConfig};
use workloads::{ArrivalProcess, RecordGenerator, WorkloadSpec};

fn small_scale() -> BenchScale {
    let mut s = BenchScale::tiny();
    s.load_bytes = 4 << 20;
    s.capacity_ratio = 12;
    s.ycsb_ops = 100;
    s
}

fn serve_cfg(clients: usize, ops: u64, records: u64, seed: u64) -> ClusterServeConfig {
    ClusterServeConfig::new(
        WorkloadSpec::serve_mix(),
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        clients,
        ops,
        records,
    )
    .with_seed(seed)
}

/// The full sweep artifact — every cell, the migration, all state
/// hashes — serializes byte-identically across same-seed reruns, and a
/// different seed produces a different artifact.
#[test]
fn shard_sweep_artifact_is_byte_identical_same_seed() {
    let scale = small_scale();
    let a = shard_run::shard_sweep(&scale).unwrap();
    let b = shard_run::shard_sweep(&scale).unwrap();
    assert_eq!(a, b, "same-seed shard artifacts must be byte-identical");
    assert!(
        shard_run::check_shard_json(&a).is_empty(),
        "{:?}",
        shard_run::check_shard_json(&a)
    );

    let mut reseeded = scale;
    reseeded.seed ^= 0xDEAD;
    let c = shard_run::shard_sweep(&reseeded).unwrap();
    assert_ne!(a, c, "a different seed must produce a different artifact");
}

/// A serve → split → serve → merge → serve sequence replays to
/// identical per-shard state hashes, identical cluster clocks, and an
/// audit that loses zero acknowledged keys at every step.
#[test]
fn mid_run_migration_replays_identically_and_loses_nothing() {
    let gen = RecordGenerator::new(16, 128, 21);
    const RECORDS: u64 = 1500;
    let run = || {
        let cfg = ShardConfig::new(3, 32 << 10, 1 << 30).with_seed(77);
        let mut c = ShardCluster::new(cfg).unwrap();
        c.load(&gen, RECORDS).unwrap();

        let r1 = serve(&mut c, &gen, &serve_cfg(6, 400, RECORDS, 31)).unwrap();
        let split = c.split_hottest().unwrap();
        assert!(split.moved_keys > 0);
        let audit1 = c.audit(&gen, r1.records_after).unwrap();
        assert_eq!(audit1.lost, 0, "split lost acked keys");

        let r2 = serve(&mut c, &gen, &serve_cfg(6, 400, r1.records_after, 32)).unwrap();
        let merge = c.merge_shard(0).unwrap();
        let audit2 = c.audit(&gen, r2.records_after).unwrap();
        assert_eq!(audit2.lost, 0, "merge lost acked keys");

        let r3 = serve(&mut c, &gen, &serve_cfg(6, 200, r2.records_after, 33)).unwrap();
        (
            r1.sim_ns,
            r2.sim_ns,
            r3.sim_ns,
            split,
            merge,
            c.state_hashes().unwrap(),
            c.now_ns(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "migration mid-run must replay identically");
}

/// Saturation throughput rises with shard count at test scale — the
/// scale-out property the artifact checker gates at 1→2→4→8.
#[test]
fn saturation_scales_with_shard_count() {
    let gen = RecordGenerator::new(16, 128, 9);
    const RECORDS: u64 = 2000;
    let sat = |shards: usize| {
        let cfg = ShardConfig::new(shards, 32 << 10, 1 << 30).with_seed(5);
        let mut c = ShardCluster::new(cfg).unwrap();
        c.load(&gen, RECORDS).unwrap();
        serve(&mut c, &gen, &serve_cfg(8, 600, RECORDS, 13))
            .unwrap()
            .throughput_ops_per_sec
    };
    let one = sat(1);
    let four = sat(4);
    let eight = sat(8);
    assert!(four > one, "4 shards {four:.0} !> 1 shard {one:.0}");
    assert!(eight > four, "8 shards {eight:.0} !> 4 shards {four:.0}");
}

/// A one-shard cluster is the single-store deployment: `seal_shard::serve`
/// on it must reproduce `seal_front::run_serve` on an identically loaded
/// cluster's store bit for bit — every simulated number and the final
/// key/value state — across closed- and open-loop S, A and E mixes.
#[test]
fn one_shard_cluster_serves_exactly_like_run_serve() {
    let gen = RecordGenerator::new(16, 512, 3);
    const RECORDS: u64 = 1200;
    let loaded = || {
        let cfg = ShardConfig::new(1, 32 << 10, 1 << 30).with_seed(19);
        let mut c = ShardCluster::new(cfg).unwrap();
        c.load(&gen, RECORDS).unwrap();
        c
    };
    let open = |ops_per_sec: f64| ArrivalProcess::OpenLoopPoisson { ops_per_sec };
    let closed = |think_ns: u64| ArrivalProcess::ClosedLoop { think_ns };
    let cases = [
        (WorkloadSpec::serve_mix(), closed(0)),
        (WorkloadSpec::serve_mix(), open(40.0)),
        (WorkloadSpec::a(), open(60.0)),
        (WorkloadSpec::a(), closed(2_000_000)),
        (WorkloadSpec::e(), open(30.0)),
    ];
    for seed in [7u64, 42] {
        for (spec, arrival) in cases {
            let mut routed = loaded();
            let cfg = ClusterServeConfig::new(spec, arrival, 4, 800, RECORDS).with_seed(seed);
            let a = serve(&mut routed, &gen, &cfg).unwrap();
            let mut single = loaded();
            let cfg = ServeConfig::new(spec, arrival, 4, 800, RECORDS).with_seed(seed);
            let b = run_serve(single.store_mut(0), &gen, &cfg).unwrap();
            let case = format!("workload {} {arrival:?} seed {seed}", spec.name);
            assert_eq!(a.ops, 800, "{case}");
            assert_eq!(a.sim_ns, b.sim_ns, "{case}");
            assert_eq!(a.latency, b.latency, "{case}");
            assert_eq!(a.queue_delay, b.queue_delay, "{case}");
            assert_eq!(a.write_calls, b.write_calls, "{case}");
            assert_eq!(a.idle_compactions, b.idle_compactions, "{case}");
            assert_eq!(a.hits, b.hits, "{case}");
            assert_eq!(
                routed.state_hash(0).unwrap(),
                single.state_hash(0).unwrap(),
                "{case}"
            );
        }
    }
}

/// A shard whose largest table sits on a dead region must not take the
/// cluster down: its point reads retry, then are served as misses, and
/// clients that exhaust their error budget walk away — every operation
/// is either served or abandoned.
#[test]
fn cluster_serve_survives_a_persistent_read_fault_on_one_shard() {
    let gen = RecordGenerator::new(16, 128, 5);
    const RECORDS: u64 = 1500;
    const OPS: u64 = 600;
    let mut c = ShardCluster::new(ShardConfig::new(3, 32 << 10, 1 << 30).with_seed(3)).unwrap();
    c.load(&gen, RECORDS).unwrap();
    let store = c.store_mut(1);
    let largest = store
        .db
        .current_version()
        .files
        .iter()
        .flatten()
        .max_by_key(|f| f.size)
        .expect("load left no tables")
        .clone();
    let ext = store.db.ctx().lock().fs.file_extent(largest.id).unwrap();
    store
        .db
        .ctx()
        .lock()
        .fs
        .disk_mut()
        .faults_mut()
        .fail_reads_permanently(ext);

    let mut cfg = ClusterServeConfig::new(
        WorkloadSpec::c(),
        ArrivalProcess::ClosedLoop { think_ns: 0 },
        6,
        OPS,
        RECORDS,
    )
    .with_seed(8);
    cfg.client_error_budget = 4;
    let r = serve(&mut c, &gen, &cfg).unwrap();
    assert!(r.failed_reads > 0, "reads into the dead table must fail");
    assert!(r.clients_abandoned > 0, "the error budget must trip");
    assert_eq!(
        r.ops + r.abandoned_ops,
        OPS,
        "every op is served or abandoned"
    );
}
