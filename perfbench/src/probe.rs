//! Snapshots of the program's public counters, taken at the same
//! boundaries as the spans, and the per-layer metrics derived from the
//! difference of two snapshots.
//!
//! Every value here is on the simulated clock or is a count, so it
//! repeats bit-for-bit for one seed.

use crate::common::RECORD_BYTES;
use crate::stats::ratio;
use crate::Metrics;
use sealdb::Store;
use smr_sim::{IoKind, ObsLayer};
use std::collections::BTreeMap;

/// Device kinds whose simulated busy time is reported per layer, with
/// the suffix each is reported under (`smr-sim.sim_s.<suffix>`).
const TIMED_KINDS: [(IoKind, &str); 8] = [
    (IoKind::Wal, "wal"),
    (IoKind::Flush, "flush"),
    (IoKind::CompactionRead, "compaction_read"),
    (IoKind::CompactionWrite, "compaction_write"),
    (IoKind::Get, "get"),
    (IoKind::Scan, "scan"),
    (IoKind::VlogAppend, "vlog_append"),
    (IoKind::VlogGc, "vlog_gc"),
];

/// Cumulative public counters of one store, or summed over a cluster's
/// stores, by name. Times are ns, sizes bytes.
#[derive(Clone, Debug, Default)]
pub struct Probe(BTreeMap<&'static str, u64>);

impl Probe {
    /// Snapshots `store` through `Store::{snapshot, metrics_snapshot,
    /// stall_stats}` and the value log's `stats`.
    pub fn of(store: &Store) -> Probe {
        let snap = store.snapshot();
        let metrics = store.metrics_snapshot();
        let gauge = |layer, name| metrics.obs.registry.gauge(layer, name) as u64;
        let io = &snap.io;
        let sets = snap.set_stats.unwrap_or_default();
        let stalls = store.stall_stats();
        let vlog = store.vlog.as_ref().map(|v| v.stats()).unwrap_or_default();
        let compactions = snap.compactions.len() as u64;
        let mut c = BTreeMap::from([
            ("get_device_read", io.kind(IoKind::Get).device_read),
            ("lsm_written", io.lsm_written()),
            ("vlog_written", io.vlog_written()),
            ("device_written", io.lsm_device_written()),
            ("user_payload", io.user_payload),
            ("seeks", io.seeks),
            ("band_rmw_events", io.band_rmw_events),
            ("flushes", snap.flushes),
            ("compactions", compactions),
            (
                "trivial_moves",
                compactions - snap.real_compactions().count() as u64,
            ),
            (
                "compaction_out",
                snap.compactions.iter().map(|c| c.output_bytes).sum(),
            ),
            ("compaction_ns", snap.total_compaction_ns()),
            ("block_hits", gauge(ObsLayer::Cache, "block_hits")),
            ("block_misses", gauge(ObsLayer::Cache, "block_misses")),
            ("table_hits", gauge(ObsLayer::Cache, "table_hits")),
            ("table_misses", gauge(ObsLayer::Cache, "table_misses")),
            ("stalls", stalls.total_count()),
            ("stall_ns", stalls.total_ns()),
            ("sets_created", sets.sets_created),
            ("compaction_sets", sets.compaction_sets),
            ("compaction_set_bytes", sets.compaction_set_bytes),
            ("high_water", snap.high_water),
            ("free_regions", snap.free_regions.len() as u64),
            ("vlog_appended", vlog.appended_bytes),
            ("vlog_relocated", vlog.relocated_bytes),
            ("vlog_reclaimed", vlog.reclaimed_bytes),
            (
                "ptr_chase_ns",
                metrics
                    .obs
                    .histogram(ObsLayer::ValueLog, "ptr_chase_ns")
                    .map_or(0, |h| h.sum_ns()),
            ),
        ]);
        for (kind, suffix) in TIMED_KINDS {
            c.insert(suffix, io.kind(kind).time_ns);
        }
        Probe(c)
    }

    /// Sum of the probes of several stores (a shard cluster).
    pub fn sum(probes: &[Probe]) -> Probe {
        let mut total = BTreeMap::new();
        for p in probes {
            for (&name, &v) in &p.0 {
                *total.entry(name).or_insert(0) += v;
            }
        }
        Probe(total)
    }

    fn get(&self, name: &str) -> u64 {
        self.0[name]
    }

    /// `name` counted between `before` and `self`.
    fn since(&self, before: &Probe, name: &str) -> f64 {
        (self.get(name) - before.get(name)) as f64
    }

    /// Allocator high-water bytes per live user byte, for `records` live
    /// records (state, not a delta).
    pub fn space_amp(&self, records: u64) -> f64 {
        ratio(
            self.get("high_water") as f64,
            (records * RECORD_BYTES) as f64,
        )
    }

    /// Device bytes written per user byte between `before` and `self`
    /// (Table I MWA over that window).
    pub fn mwa_since(&self, before: &Probe) -> f64 {
        ratio(
            self.since(before, "device_written"),
            self.since(before, "user_payload"),
        )
    }

    /// The per-layer metrics of the window `before..self`, in which the
    /// workload completed `ops` operations of which `gets` were point
    /// lookups. State gauges (high-water mark, free regions) read `self`.
    pub fn layer_metrics(&self, before: &Probe, ops: u64, gets: u64, m: &mut Metrics) {
        let d = |name| self.since(before, name);
        let mib = |name| d(name) / f64::from(1 << 20);
        let secs_of = |name| d(name) / 1e9;
        m.put(
            "lsm-core.wa",
            ratio(d("lsm_written"), d("user_payload")),
            "ratio",
        );
        m.put("lsm-core.flushes", d("flushes"), "count");
        m.put("lsm-core.compactions", d("compactions"), "count");
        m.put("lsm-core.trivial_moves", d("trivial_moves"), "count");
        m.put("lsm-core.compaction_out_mib", mib("compaction_out"), "MiB");
        m.put("lsm-core.compaction_sim_s", secs_of("compaction_ns"), "s");
        let (bh, bm) = (d("block_hits"), d("block_misses"));
        m.put("lsm-core.block_cache_hits", bh, "count");
        m.put("lsm-core.block_cache_misses", bm, "count");
        m.put(
            "lsm-core.block_cache_hit_ratio",
            ratio(bh, bh + bm),
            "ratio",
        );
        let (th, tm) = (d("table_hits"), d("table_misses"));
        m.put(
            "lsm-core.table_cache_hit_ratio",
            ratio(th, th + tm),
            "ratio",
        );
        m.put("lsm-core.stalls", d("stalls"), "count");
        m.put("lsm-core.stall_sim_s", secs_of("stall_ns"), "s");
        m.put("lsm-core.wal_sync_sim_s", secs_of("wal"), "s");
        m.put(
            "placement.awa",
            ratio(d("device_written"), d("lsm_written") + d("vlog_written")),
            "ratio",
        );
        m.put("placement.sets_created", d("sets_created"), "count");
        m.put(
            "placement.avg_set_mib",
            ratio(mib("compaction_set_bytes"), d("compaction_sets")),
            "MiB",
        );
        m.put(
            "placement.high_water_mib",
            self.get("high_water") as f64 / f64::from(1 << 20),
            "MiB",
        );
        m.put(
            "placement.free_regions",
            self.get("free_regions") as f64,
            "count",
        );
        for (_, suffix) in TIMED_KINDS {
            m.put_owned(format!("smr-sim.sim_s.{suffix}"), secs_of(suffix), "s");
        }
        m.put(
            "smr-sim.seeks_per_op",
            ratio(d("seeks"), ops as f64),
            "seeks/op",
        );
        m.put(
            "smr-sim.device_read_bytes_per_get",
            ratio(d("get_device_read"), gets as f64),
            "B/get",
        );
        m.put("smr-sim.band_rmw_events", d("band_rmw_events"), "count");
        m.put("vlog.appended_mib", mib("vlog_appended"), "MiB");
        m.put("vlog.relocated_mib", mib("vlog_relocated"), "MiB");
        m.put("vlog.reclaimed_mib", mib("vlog_reclaimed"), "MiB");
        m.put(
            "vlog.relocated_per_appended",
            ratio(d("vlog_relocated"), d("vlog_appended")),
            "ratio",
        );
        m.put("vlog.ptr_chase_sim_s", secs_of("ptr_chase_ns"), "s");
    }
}
