//! Cluster serving: many clients, one router, N shard queues.
//!
//! The event loop itself is `seal-front`'s, the only one in the
//! workspace ([`seal_front::serve_stores`]); a single store is its N = 1
//! case. This module hands it the active shards' stores with the
//! ring's router, then does what only a cluster has: it syncs every
//! shard to the cluster frontier before the run, publishes each
//! shard's router-layer view, and advances the frontier to the last
//! completion afterwards.
//!
//! Throughput is aggregate: completed operations over the cluster span
//! (start to last completion on any shard). More shards mean more disks
//! serving concurrently, so saturation throughput scales out until the
//! hottest shard — zipfian traffic concentrates — becomes the
//! bottleneck. Scans are shard-local (the routed shard's range);
//! cross-shard scans are the scatter-gather [`ShardCluster::scan`].

use crate::ShardCluster;
use lsm_core::Result;
use seal_front::{serve_stores, ServeConfig, ServeResult};
use sealdb::Store;
use workloads::RecordGenerator;

/// Configuration of one cluster serving run — the one serving
/// configuration; `clients` and `total_ops` are cluster-wide and the
/// group-commit cap applies per shard.
pub type ClusterServeConfig = ServeConfig;

/// Everything one cluster serving run measured. Per-shard vectors are
/// indexed by shard slot; merged-away slots read 0.
pub type ClusterServeResult = ServeResult;

/// Serves `cfg.total_ops` operations against a preloaded cluster and
/// reports aggregate latency and per-shard load.
pub fn serve(
    cluster: &mut ShardCluster,
    gen: &RecordGenerator,
    cfg: &ClusterServeConfig,
) -> Result<ClusterServeResult> {
    let start = cluster.sync_all();
    let active = cluster.active_shards();
    // The loop indexes the active stores densely; `queue_of` maps a
    // ring slot to its position.
    let mut queue_of = vec![usize::MAX; cluster.total_shards()];
    for (q, &slot) in active.iter().enumerate() {
        queue_of[slot] = q;
    }
    let mut r = {
        let ring = &cluster.ring;
        let mut stores: Vec<&mut Store> = cluster
            .shards
            .iter_mut()
            .filter(|shard| shard.active)
            .map(|shard| &mut shard.store)
            .collect();
        serve_stores(&mut stores, |key| queue_of[ring.route(key)], gen, cfg)?
    };
    r.per_shard_ops = by_slot(&r.per_shard_ops, &active, queue_of.len());
    r.per_shard_write_calls = by_slot(&r.per_shard_write_calls, &active, queue_of.len());
    r.per_shard_queue_depth_max = by_slot(&r.per_shard_queue_depth_max, &active, queue_of.len());
    for &s in &active {
        cluster.publish_router_obs(
            s,
            r.per_shard_ops[s],
            r.per_shard_write_calls[s],
            r.per_shard_queue_depth_max[s],
        );
    }
    // The cluster frontier advances to the last completion.
    let end = start + r.sim_ns;
    for &s in &active {
        cluster.store_mut(s).advance_clock_to(end);
    }
    cluster.now_ns = end;
    Ok(r)
}

/// Spreads per-queue values over `slots` shard slots.
fn by_slot<T: Copy + Default>(per_queue: &[T], active: &[usize], slots: usize) -> Vec<T> {
    let mut out = vec![T::default(); slots];
    for (&v, &slot) in per_queue.iter().zip(active) {
        out[slot] = v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardConfig;
    use workloads::{ArrivalProcess, WorkloadSpec as Spec};

    const SST: u64 = 32 << 10;
    const CAP: u64 = 1 << 30;

    fn serving_cluster(shards: usize, records: u64, gen: &RecordGenerator) -> ShardCluster {
        let mut c = ShardCluster::new(ShardConfig::new(shards, SST, CAP)).unwrap();
        c.load(gen, records).unwrap();
        c
    }

    fn closed(clients: usize, ops: u64, records: u64) -> ClusterServeConfig {
        ClusterServeConfig::new(
            Spec::serve_mix(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            clients,
            ops,
            records,
        )
    }

    #[test]
    fn cluster_serves_all_ops_and_reads_hit() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut c = serving_cluster(4, 1200, &gen);
        let r = serve(&mut c, &gen, &closed(8, 800, 1200)).unwrap();
        assert_eq!(r.ops, 800);
        assert_eq!(r.shards, 4);
        assert!(r.sim_ns > 0);
        assert_eq!(r.misses, 0, "preloaded zipfian reads must not miss");
        assert_eq!(r.per_shard_ops.iter().sum::<u64>(), 800);
        assert!(
            r.per_shard_ops.iter().all(|&n| n > 0),
            "{:?}",
            r.per_shard_ops
        );
        // Serve-phase inserts grew the keyspace; audit re-reads all of it.
        assert!(r.records_after > 1200);
        let audit = c.audit(&gen, r.records_after).unwrap();
        assert_eq!(audit.lost, 0);
    }

    #[test]
    fn more_shards_raise_saturation_throughput() {
        let gen = RecordGenerator::new(16, 100, 1);
        let sat = |shards: usize| {
            let mut c = serving_cluster(shards, 1500, &gen);
            serve(&mut c, &gen, &closed(8, 600, 1500))
                .unwrap()
                .throughput_ops_per_sec
        };
        let one = sat(1);
        let four = sat(4);
        assert!(
            four > one,
            "4 shards ({four:.0} op/s) must out-serve 1 ({one:.0} op/s)"
        );
    }

    #[test]
    fn group_commit_forms_per_shard_and_respects_cap() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut c = serving_cluster(2, 800, &gen);
        let mut cfg = closed(8, 600, 800);
        cfg.max_group_bytes = 600;
        let r = serve(&mut c, &gen, &cfg).unwrap();
        assert_eq!(r.ops, 600);
        assert!(r.max_group_len > 1, "groups must form under 8 hot clients");
        assert!(
            r.max_group_wire <= cfg.max_group_bytes,
            "group of {} wire bytes overshot the {} cap",
            r.max_group_wire,
            cfg.max_group_bytes
        );
        assert!(r.write_calls < r.write_ops);
    }

    #[test]
    fn same_seed_cluster_serves_identically() {
        let gen = RecordGenerator::new(16, 100, 1);
        let go = |seed: u64| {
            let mut c = serving_cluster(3, 1000, &gen);
            let cfg = closed(6, 500, 1000).with_seed(seed);
            let r = serve(&mut c, &gen, &cfg).unwrap();
            (
                r.sim_ns,
                r.latency,
                r.per_shard_ops.clone(),
                c.state_hashes().unwrap(),
            )
        };
        let a = go(11);
        let b = go(11);
        assert_eq!(a, b);
        let c = go(12);
        assert_ne!(a.0, c.0, "a different seed must shift the schedule");
    }

    #[test]
    fn router_metrics_reach_each_shards_obs() {
        use smr_sim::ObsLayer;
        let gen = RecordGenerator::new(16, 100, 1);
        let mut c = serving_cluster(2, 600, &gen);
        let r = serve(&mut c, &gen, &closed(4, 300, 600)).unwrap();
        for s in c.active_shards() {
            let m = c.store(s).metrics_snapshot();
            assert_eq!(
                m.obs.registry.counter(ObsLayer::Router, "ops"),
                r.per_shard_ops[s],
                "shard {s}"
            );
            assert!(m
                .to_json(0)
                .contains(&format!("\"instance\":\"shard-{s}\"")));
        }
    }
}
