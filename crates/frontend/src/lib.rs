//! # seal-front — a deterministic multi-client serving front-end
//!
//! The paper's db_bench-style experiments measure one client issuing
//! operations back to back, so latency is pure service time. A serving
//! deployment looks different: many clients, an offered load that does
//! not care how fast the store is, a queue in front of the disk, and
//! background compaction competing with foreground requests. This crate
//! models that as a discrete-event simulation on the stores' *simulated*
//! clocks — no threads, no wall time, so a (config, seed) pair always
//! produces byte-identical results.
//!
//! There is one serving loop, [`serve_stores`]: N store queues behind a
//! router. [`run_serve`] is its single-store case (N = 1); the shard
//! router (`seal-shard`) passes its active shards and its hash ring.
//!
//! The moving pieces, each borrowed from LevelDB's serving machinery:
//!
//! * **Virtual clients** issue YCSB-mix operations either *open-loop*
//!   (seeded Poisson arrivals at a target rate, [`ArrivalProcess`]) or
//!   *closed-loop* (wait for completion, think, reissue).
//! * **Group commit** — writes waiting in a queue behind a serving
//!   write are merged into its batch (`BuildBatchGroup`): one WAL
//!   append, one sync, one contiguous sequence range for the group.
//! * **Write backpressure** — the stores run in deferred-compaction
//!   mode, so L0 slowdown/stop triggers and memtable-full stalls hit
//!   the serving path exactly as they would a real writer, and the
//!   front-end drives [`sealdb::Store::compact_step`] during idle gaps,
//!   standing in for the background compaction thread.
//! * **Degraded mode** — point reads retry device errors with capped
//!   backoff and are served as misses when the retries run out, a scan
//!   that fails is served empty; a client that exhausts its error
//!   budget walks away.

use lsm_core::{Result, ScrubConfig, StallStats, WriteBatch};
use sealdb::Store;
use smr_sim::ObsLayer;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use workloads::ycsb::WorkloadSpec;
use workloads::{ArrivalProcess, InterArrival, Op, OpDraw, RecordGenerator};

/// Configuration of one serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of virtual clients.
    pub clients: usize,
    /// Total operations to serve across all clients.
    pub total_ops: u64,
    /// Records preloaded into the store (the YCSB keyspace).
    pub record_count: u64,
    /// Operation mix and key distribution.
    pub spec: WorkloadSpec,
    /// Traffic shape (per client).
    pub arrival: ArrivalProcess,
    /// Seed for every RNG stream the run owns.
    pub seed: u64,
    /// Group-commit size cap in batch wire bytes (LevelDB: 1 MiB).
    pub max_group_bytes: usize,
    /// Whether idle gaps run background compaction steps.
    pub idle_compaction: bool,
    /// In-request retries for a point read that errors (latent sector
    /// error, corrupt block). Each retry waits `retry_backoff_ns` (then
    /// doubling) of simulated time before reissuing.
    pub read_retries: u32,
    /// Backoff before the first read retry, ns; doubles per retry up to
    /// [`ServeConfig::retry_backoff_max_ns`].
    pub retry_backoff_ns: u64,
    /// Cap on the doubling retry backoff, ns: long fault bursts (or a
    /// replication failover holding reads off) must not balloon a
    /// single wait past the sweep horizon. Values below
    /// `retry_backoff_ns` clamp up to it.
    pub retry_backoff_max_ns: u64,
    /// Failed point reads a client tolerates before giving up and
    /// abandoning the rest of its operations (degraded-mode SLO: a
    /// client facing a broken shard walks away rather than hammering
    /// it). Failed reads are served as misses either way.
    pub client_error_budget: u64,
    /// When non-zero, idle gaps also run one scrub step with this byte
    /// budget, so repair proceeds under load in the space compaction
    /// leaves over. Zero disables in-flight scrubbing.
    pub idle_scrub_bytes: u64,
    /// When non-zero and the store has a value log, idle gaps also run
    /// one cooperative GC step with this byte budget
    /// ([`sealdb::Store::vlog_gc_step`]), standing in for the value
    /// log's background GC thread the same way `idle_compaction` stands
    /// in for the compaction thread. Zero disables in-flight vlog GC.
    pub idle_vlog_gc_bytes: u64,
}

impl ServeConfig {
    /// A serving run with the default group cap and idle compaction on.
    pub fn new(
        spec: WorkloadSpec,
        arrival: ArrivalProcess,
        clients: usize,
        total_ops: u64,
        record_count: u64,
    ) -> Self {
        ServeConfig {
            clients,
            total_ops,
            record_count,
            spec,
            arrival,
            seed: 0x5EA1F007,
            max_group_bytes: 1 << 20,
            idle_compaction: true,
            read_retries: 2,
            retry_backoff_ns: 500_000,
            retry_backoff_max_ns: 8_000_000,
            client_error_budget: 64,
            idle_scrub_bytes: 0,
            idle_vlog_gc_bytes: 0,
        }
    }

    /// Same run with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Exact latency summary from a complete sample vector (the obs layer's
/// histograms are bucketed; serving percentiles are reported exactly).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Maximum, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarises a sample slice (sorted in place, nearest-rank
    /// percentiles).
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| -> u64 {
            let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        LatencySummary {
            count: n as u64,
            mean_ns: sum as f64 / n as f64,
            p50_ns: rank(0.50),
            p95_ns: rank(0.95),
            p99_ns: rank(0.99),
            max_ns: samples[n - 1],
        }
    }
}

/// Everything one serving run measured.
#[derive(Clone, Debug, Default)]
pub struct ServeResult {
    /// Display name of the store kind served.
    pub store: &'static str,
    /// Store queues that served the run (1 for [`run_serve`]).
    pub shards: usize,
    /// Operations completed.
    pub ops: u64,
    /// Simulated span of the serving phase, ns: start to the last
    /// completion on any store.
    pub sim_ns: u64,
    /// Completed operations per simulated second (aggregate).
    pub throughput_ops_per_sec: f64,
    /// End-to-end latency (arrival → completion): queueing + service.
    pub latency: LatencySummary,
    /// Queueing delay alone (arrival → service start).
    pub queue_delay: LatencySummary,
    /// Deepest request queue observed at a service start.
    pub queue_depth_max: usize,
    /// Mean queue depth over service starts.
    pub queue_depth_mean: f64,
    /// Operations served by each store queue.
    pub per_shard_ops: Vec<u64>,
    /// `Store::write` calls issued by each store queue.
    pub per_shard_write_calls: Vec<u64>,
    /// Deepest queue observed at a service start, per store queue.
    pub per_shard_queue_depth_max: Vec<usize>,
    /// `Store::write` calls issued (each is one WAL append + sync).
    pub write_calls: u64,
    /// Write operations carried by those calls (≥ `write_calls`; the
    /// ratio is the group-commit amortisation factor).
    pub write_ops: u64,
    /// Largest write group merged.
    pub max_group_len: usize,
    /// Largest committed group in wire bytes. Never exceeds
    /// [`ServeConfig::max_group_bytes`] unless a single oversized batch
    /// committed alone (merging must not overshoot the cap; a lone batch
    /// bigger than the cap still commits).
    pub max_group_wire: usize,
    /// Write stalls during the serving phase only, summed over stores.
    pub stalls: StallStats,
    /// Background compaction steps run in idle gaps.
    pub idle_compactions: u64,
    /// Point reads that found their key.
    pub hits: u64,
    /// Point reads that missed.
    pub misses: u64,
    /// Point reads that succeeded only after at least one in-request
    /// retry (the request was served, but degraded).
    pub degraded_reads: u64,
    /// Point reads that exhausted their retry budget and were served as
    /// misses, plus scans that failed (served empty).
    pub failed_reads: u64,
    /// Files the in-flight scrubber repaired during idle gaps.
    pub repaired_in_flight: u64,
    /// Value-log GC steps run in idle gaps.
    pub vlog_gc_steps: u64,
    /// Operations abandoned by clients that blew their error budget.
    pub abandoned_ops: u64,
    /// Clients that gave up before issuing all their operations.
    pub clients_abandoned: u64,
    /// Keyspace size after the run (preload plus serve-phase inserts) —
    /// the audit horizon.
    pub records_after: u64,
}

impl ServeResult {
    /// Mean write operations per WAL commit (1.0 = no grouping).
    pub fn avg_group_size(&self) -> f64 {
        if self.write_calls == 0 {
            0.0
        } else {
            self.write_ops as f64 / self.write_calls as f64
        }
    }

    /// Max-over-mean of per-queue served operations (queues that served
    /// nothing are left out).
    pub fn ops_imbalance(&self) -> f64 {
        let active: Vec<u64> = self
            .per_shard_ops
            .iter()
            .copied()
            .filter(|&n| n > 0)
            .collect();
        imbalance(&active)
    }
}

/// Max-over-mean of a count vector — the load-imbalance figure the
/// BENCH_pr7 artifact gates on. Empty or all-zero input reads 1.0.
pub fn imbalance(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / counts.len() as f64;
    let max = *counts.iter().max().expect("non-empty") as f64;
    max / mean
}

/// A request sitting in a store's queue.
struct Request {
    arrival_ns: u64,
    client: usize,
    op: Op,
}

/// What the degraded read path observed for one point read.
struct ReadOutcome {
    value: Option<Vec<u8>>,
    /// Served, but only after at least one retry.
    retried: bool,
    /// Retry budget exhausted; served as a miss.
    failed: bool,
}

/// Whether merging `next` into the group led by `head` keeps the merged
/// batch within `cap` wire bytes. Checked *before* appending, so a group
/// never overshoots the cap; the merged size charges `next` its body
/// bytes only (the group shares the leader's 12-byte header). A head
/// batch already at or past the cap simply admits no followers — it
/// still commits, alone.
pub fn group_fits(head: &WriteBatch, next: &WriteBatch, cap: usize) -> bool {
    head.byte_size() + next.body_bytes() <= cap
}

/// Capped exponential backoff: `base_ns * 2^attempt` (attempt 0 is the
/// first wait), saturating, clamped to `max_ns` — with both knobs
/// floored at 1 ns so a zero config cannot spin the retry loop without
/// advancing the simulated clock. Shared by the degraded read path and
/// by replication failover clients modelling redirect retries. The
/// formula now lives in [`smr_sim::backoff`] (with an optional
/// jittered [`smr_sim::Backoff`] policy); this re-export keeps the
/// historical `seal_front::bounded_backoff_ns` path working.
pub use smr_sim::backoff::bounded_backoff_ns;

/// Per-client error-budget accounting with *at-most-once-per-op*
/// failure counting.
///
/// An operation can fail at more than one point in its life — a
/// failover redirect that times out *and* a read that then exhausts
/// its retry budget. Charging the client once per failure point
/// double-counts the op and trips the budget early (the historical
/// serve-loop accounting charged each site separately); this helper
/// pins the contract that one operation costs at most one unit of
/// budget no matter how many ways it failed.
#[derive(Clone, Debug)]
pub struct ClientBudget {
    /// Failure budget per client; a client at or past it gives up.
    budget: u64,
    /// Failed-op tally per client.
    failures: Vec<u64>,
    /// Clients that already gave up (latched).
    gave_up: Vec<bool>,
}

impl ClientBudget {
    /// A fresh accountant for `clients` clients with the given budget
    /// (floored at 1, like the serve loop always did).
    pub fn new(clients: usize, budget: u64) -> Self {
        ClientBudget {
            budget: budget.max(1),
            failures: vec![0; clients],
            gave_up: vec![false; clients],
        }
    }

    /// Records the outcome of ONE operation for `client` that observed
    /// `failure_events` distinct failure points (0 = clean). The op is
    /// charged at most one unit of budget regardless of how many points
    /// it failed at. Returns `true` exactly when this op newly tripped
    /// the client's budget (the caller abandons the client's remaining
    /// work once).
    pub fn note_op(&mut self, client: usize, failure_events: u32) -> bool {
        if failure_events > 0 {
            self.failures[client] += 1;
        }
        if !self.gave_up[client] && self.failures[client] >= self.budget {
            self.gave_up[client] = true;
            return true;
        }
        false
    }

    /// Failed ops charged to `client` so far.
    pub fn failures(&self, client: usize) -> u64 {
        self.failures[client]
    }

    /// True once `client` has blown its budget.
    pub fn tripped(&self, client: usize) -> bool {
        self.gave_up[client]
    }
}

/// A point read that survives device faults: on error, back off on the
/// simulated clock (doubling, capped at `cfg.retry_backoff_max_ns`) and
/// reissue, up to `cfg.read_retries` times. A read that keeps failing
/// is served as a miss rather than tearing down the serving loop —
/// availability degrades, the server stays up, and the scrubber repairs
/// the damage out-of-band.
fn degraded_get(store: &mut Store, cfg: &ServeConfig, key: &[u8]) -> ReadOutcome {
    let mut attempt = 0u32;
    loop {
        match store.get(key) {
            Ok(value) => {
                return ReadOutcome {
                    value,
                    retried: attempt > 0,
                    failed: false,
                }
            }
            Err(_) if attempt < cfg.read_retries => {
                let wait =
                    bounded_backoff_ns(cfg.retry_backoff_ns, cfg.retry_backoff_max_ns, attempt);
                store.advance_clock_to(store.clock_ns() + wait);
                attempt += 1;
            }
            Err(_) => {
                return ReadOutcome {
                    value: None,
                    retried: attempt > 0,
                    failed: true,
                }
            }
        }
    }
}

/// Serves one point read through [`degraded_get`] and tallies it;
/// returns the failure events it charges the client (0 or 1).
fn tally_read(store: &mut Store, cfg: &ServeConfig, key: &[u8], r: &mut ServeResult) -> u32 {
    let out = degraded_get(store, cfg, key);
    r.degraded_reads += u64::from(out.retried);
    r.failed_reads += u64::from(out.failed);
    if out.value.is_some() {
        r.hits += 1;
    } else {
        r.misses += 1;
    }
    u32::from(out.failed)
}

/// Background compaction in an idle gap: steps until the store's clock
/// reaches `until` or the tree is within budget. A step may overshoot
/// `until` — the next request then queues behind it, exactly like a
/// foreground write behind a busy disk.
fn compact_until(
    store: &mut Store,
    cfg: &ServeConfig,
    until: u64,
    r: &mut ServeResult,
) -> Result<()> {
    if cfg.idle_compaction {
        while store.clock_ns() < until && store.needs_compaction() {
            if !store.compact_step()? {
                break;
            }
            r.idle_compactions += 1;
        }
    }
    Ok(())
}

/// Everything a store does while every queue waits for the next
/// arrival at `until`; nothing if that arrival is already due.
fn idle_work(store: &mut Store, cfg: &ServeConfig, until: u64, r: &mut ServeResult) -> Result<()> {
    if store.clock_ns() >= until {
        return Ok(());
    }
    // The value log's cooperative GC gets the first slice of the gap:
    // one budgeted step, relocating live values and recycling dead
    // segments. It runs *before* compaction because compaction is
    // greedy (it eats the gap until the next arrival), while a budgeted
    // GC step is bounded — ordered the other way, update-heavy traffic
    // starves the value log and dead segments pile up.
    if cfg.idle_vlog_gc_bytes > 0 && store.vlog_gc_pending() {
        store.vlog_gc_step(cfg.idle_vlog_gc_bytes)?;
        r.vlog_gc_steps += 1;
    }
    compact_until(store, cfg, until, r)?;
    // Spare idle time also advances the scrubber: one budgeted step per
    // gap, so repair makes progress under load without starving
    // foreground requests (it may overshoot, same deal as compaction).
    if cfg.idle_scrub_bytes > 0 && store.clock_ns() < until {
        let scrub_cfg = ScrubConfig {
            bytes_per_step: cfg.idle_scrub_bytes,
            repair: true,
        };
        r.repaired_in_flight += store.scrub_step(&scrub_cfg)?.files_repaired;
    }
    Ok(())
}

/// Serves `cfg.total_ops` operations against a preloaded store and
/// reports latency under the offered load — [`serve_stores`] with one
/// store. The run is also published into the store's observability
/// bundle under [`ObsLayer::Frontend`].
pub fn run_serve(
    store: &mut Store,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<ServeResult> {
    let (result, latencies, queue_delays) = serve_deferred(&mut [&mut *store], |_| 0, gen, cfg)?;
    publish_obs(store, &result, &latencies, &queue_delays);
    Ok(result)
}

/// Serves `cfg.total_ops` operations against N preloaded stores, one
/// request queue each; `route` maps an operation's key to the index of
/// the store that serves it. Throughput is aggregate: completed
/// operations over the span from the start (the latest store clock) to
/// the last completion on any store.
///
/// Every store is flipped into deferred-compaction (serve) mode for the
/// duration and restored afterwards, so preload and any surrounding
/// benchmark phases keep the original quiesce-on-write behaviour.
/// Nothing is published to the stores' observability bundles; callers
/// publish the view their layer owns.
pub fn serve_stores(
    stores: &mut [&mut Store],
    route: impl Fn(&[u8]) -> usize,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<ServeResult> {
    serve_deferred(stores, route, gen, cfg).map(|(result, _, _)| result)
}

/// [`serve_loop`] bracketed by deferred-compaction mode.
fn serve_deferred(
    stores: &mut [&mut Store],
    route: impl Fn(&[u8]) -> usize,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<(ServeResult, Vec<u64>, Vec<u64>)> {
    assert!(cfg.clients > 0, "serve needs at least one client");
    assert!(!stores.is_empty(), "serve needs at least one store");
    for store in stores.iter_mut() {
        store.set_deferred_compaction(true);
    }
    let result = serve_loop(stores, route, gen, cfg);
    for store in stores.iter_mut() {
        store.set_deferred_compaction(false);
    }
    result
}

/// The discrete-event loop. Returns the result plus its exact latency
/// and queue-delay samples (sorted).
///
/// The next event is always the earliest of: the next client arrival,
/// or the store that can begin serving its queue head soonest — a
/// store is ready at max(its disk clock, the head's arrival), ties
/// broken by store index. Arrivals are admitted (drawn, routed,
/// queued) up to that service instant, so an admitted write is visible
/// to the group commit it queues behind.
fn serve_loop(
    stores: &mut [&mut Store],
    route: impl Fn(&[u8]) -> usize,
    gen: &RecordGenerator,
    cfg: &ServeConfig,
) -> Result<(ServeResult, Vec<u64>, Vec<u64>)> {
    let n = stores.len();
    let start = stores.iter().map(|s| s.clock_ns()).max().expect("stores");
    let stalls_before: Vec<StallStats> = stores.iter().map(|s| s.stall_stats()).collect();
    let mut draw = OpDraw::new(gen, cfg.spec, cfg.record_count, cfg.seed);
    let mut r = ServeResult {
        store: stores[0].name(),
        shards: n,
        per_shard_ops: vec![0; n],
        per_shard_write_calls: vec![0; n],
        per_shard_queue_depth_max: vec![0; n],
        ..ServeResult::default()
    };

    // Per-client traffic state: gap generator and unissued-op quota.
    let mut gaps: Vec<InterArrival> = (0..cfg.clients)
        .map(|c| InterArrival::new(cfg.arrival, cfg.seed ^ (0xC11E57 + c as u64 * 0x9E3779B9)))
        .collect();
    let mut remaining: Vec<u64> = {
        let base = cfg.total_ops / cfg.clients as u64;
        let extra = (cfg.total_ops % cfg.clients as u64) as usize;
        (0..cfg.clients)
            .map(|c| base + u64::from(c < extra))
            .collect()
    };
    let open_loop = matches!(cfg.arrival, ArrivalProcess::OpenLoopPoisson { .. });

    // Future arrivals, ordered by (time, admission index, client) — the
    // admission index breaks ties deterministically.
    let mut arrivals: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut next_idx = 0u64;
    for c in 0..cfg.clients {
        if remaining[c] == 0 {
            continue;
        }
        let t = if open_loop {
            start + gaps[c].next_gap_ns()
        } else {
            start
        };
        arrivals.push(Reverse((t, next_idx, c)));
        next_idx += 1;
        remaining[c] -= 1;
    }

    let mut pending: Vec<VecDeque<Request>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.total_ops as usize);
    let mut queue_delays: Vec<u64> = Vec::with_capacity(cfg.total_ops as usize);
    let mut depth_sum = 0u64;
    let mut services = 0u64;
    let mut last_done = start;
    // Per-client failed-op accounting; each op charges at most one
    // unit of budget no matter how many points it failed at.
    let mut budget = ClientBudget::new(cfg.clients, cfg.client_error_budget);

    while r.ops + r.abandoned_ops < cfg.total_ops {
        let next_service: Option<(u64, usize)> = (0..n)
            .filter_map(|s| {
                let head = pending[s].front()?;
                Some((stores[s].clock_ns().max(head.arrival_ns), s))
            })
            .min();

        // Admit every arrival due at or before the next service (or,
        // with every queue empty, at the next arrival instant). Open-
        // loop clients immediately schedule their next arrival (the
        // offered load ignores completions); closed-loop clients
        // reschedule at completion time below.
        if let Some(&Reverse((t_a, _, _))) = arrivals.peek() {
            let horizon = match next_service {
                Some((t_s, _)) => t_s,
                None => {
                    // Every queue idle until the next arrival: spend the
                    // gap on background work, store by store.
                    for store in stores.iter_mut() {
                        idle_work(store, cfg, t_a, &mut r)?;
                    }
                    t_a
                }
            };
            if t_a <= horizon {
                while let Some(&Reverse((t, _, c))) = arrivals.peek() {
                    if t > horizon {
                        break;
                    }
                    arrivals.pop();
                    let op = draw.draw();
                    pending[route(op.key())].push_back(Request {
                        arrival_ns: t,
                        client: c,
                        op,
                    });
                    if open_loop && remaining[c] > 0 {
                        arrivals.push(Reverse((t + gaps[c].next_gap_ns(), next_idx, c)));
                        next_idx += 1;
                        remaining[c] -= 1;
                    }
                }
                continue; // recompute the next service with the new queues
            }
        }

        let Some((_, s)) = next_service else {
            break; // no pending work and no arrivals left
        };
        let store = &mut *stores[s];
        let queue = &mut pending[s];

        // An idle gap before this store's head arrived (other stores
        // kept serving): compact, then let the clock catch up.
        let head_arrival = queue.front().expect("non-empty").arrival_ns;
        compact_until(store, cfg, head_arrival, &mut r)?;
        store.advance_clock_to(head_arrival);

        // Serve the head request; a write absorbs the queued writes
        // behind it (group commit) that had arrived by the service
        // start — one admitted under a later horizon has not.
        r.per_shard_queue_depth_max[s] = r.per_shard_queue_depth_max[s].max(queue.len());
        depth_sum += queue.len() as u64;
        services += 1;
        let service_start = store.clock_ns();
        let head = queue.pop_front().expect("non-empty queue");
        let head_client = head.client;
        let mut members: Vec<(u64, usize)> = vec![(head.arrival_ns, head.client)];
        let mut op_failure_events = 0u32;
        match head.op {
            Op::Write(mut batch) => {
                while let Some(next) = queue.front() {
                    let fits = next.arrival_ns <= service_start
                        && matches!(&next.op, Op::Write(b) if group_fits(&batch, b, cfg.max_group_bytes));
                    if !fits {
                        break;
                    }
                    let next = queue.pop_front().expect("checked front");
                    let Op::Write(b) = next.op else {
                        unreachable!("checked write")
                    };
                    batch.append(&b);
                    members.push((next.arrival_ns, next.client));
                }
                r.write_calls += 1;
                r.per_shard_write_calls[s] += 1;
                r.write_ops += members.len() as u64;
                r.max_group_len = r.max_group_len.max(members.len());
                r.max_group_wire = r.max_group_wire.max(batch.byte_size());
                store.write(batch)?;
            }
            Op::Get(key) => op_failure_events = tally_read(store, cfg, &key, &mut r),
            Op::Scan(key, len) => {
                // A store-local scan: the routed store's range. One that
                // fails (a lost block, a pointer into a quarantined
                // segment) is served empty as a failed read, not allowed
                // to tear down the serving loop. Transient read errors
                // never get here: the file store retries those.
                if store.scan(&key, len).is_err() {
                    r.failed_reads += 1;
                    op_failure_events = 1;
                }
            }
            Op::Rmw(key, value) => {
                op_failure_events = tally_read(store, cfg, &key, &mut r);
                store.put(&key, &value)?;
            }
        }
        // A client that has blown its error budget walks away: whatever
        // it had not yet issued is abandoned, not served. Checked before
        // completion bookkeeping so a closed-loop client that just gave
        // up does not reissue.
        if budget.note_op(head_client, op_failure_events) {
            r.clients_abandoned += 1;
            r.abandoned_ops += remaining[head_client];
            remaining[head_client] = 0;
        }
        let done = store.clock_ns();
        last_done = last_done.max(done);
        r.per_shard_ops[s] += members.len() as u64;
        for &(arrival, client) in &members {
            latencies.push(done - arrival);
            queue_delays.push(service_start - arrival);
            r.ops += 1;
            if !open_loop && remaining[client] > 0 {
                arrivals.push(Reverse((
                    done + gaps[client].next_gap_ns(),
                    next_idx,
                    client,
                )));
                next_idx += 1;
                remaining[client] -= 1;
            }
        }
    }

    r.sim_ns = last_done - start;
    r.throughput_ops_per_sec = if r.sim_ns == 0 {
        0.0
    } else {
        r.ops as f64 * 1e9 / r.sim_ns as f64
    };
    r.latency = LatencySummary::from_samples(&mut latencies);
    r.queue_delay = LatencySummary::from_samples(&mut queue_delays);
    r.queue_depth_max = r
        .per_shard_queue_depth_max
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    r.queue_depth_mean = if services == 0 {
        0.0
    } else {
        depth_sum as f64 / services as f64
    };
    for (store, before) in stores.iter().zip(&stalls_before) {
        r.stalls += store.stall_stats().delta_since(before);
    }
    r.records_after = draw.records();
    Ok((r, latencies, queue_delays))
}

/// Mirrors the run into the store's observability bundle under the
/// frontend layer: exact sample vectors feed the bucketed histograms,
/// scalars become counters/gauges, so `metrics_snapshot` exports carry
/// the serving view alongside every other layer.
fn publish_obs(store: &mut Store, r: &ServeResult, latencies: &[u64], queue_delays: &[u64]) {
    let ctx = store.db.ctx();
    let mut guard = ctx.lock();
    let obs = guard.fs.disk_mut().obs_mut();
    for &ns in latencies {
        obs.latency(ObsLayer::Frontend, "latency_ns", ns);
    }
    for &ns in queue_delays {
        obs.latency(ObsLayer::Frontend, "queue_delay_ns", ns);
    }
    obs.counter_add(ObsLayer::Frontend, "ops", r.ops);
    obs.counter_add(ObsLayer::Frontend, "write_calls", r.write_calls);
    obs.counter_add(ObsLayer::Frontend, "write_ops", r.write_ops);
    obs.counter_add(ObsLayer::Frontend, "idle_compactions", r.idle_compactions);
    obs.counter_add(ObsLayer::Frontend, "degraded_reads", r.degraded_reads);
    obs.counter_add(ObsLayer::Frontend, "failed_reads", r.failed_reads);
    obs.counter_add(
        ObsLayer::Frontend,
        "repaired_in_flight",
        r.repaired_in_flight,
    );
    obs.counter_add(ObsLayer::Frontend, "vlog_gc_steps", r.vlog_gc_steps);
    obs.counter_add(ObsLayer::Frontend, "abandoned_ops", r.abandoned_ops);
    obs.gauge_set(
        ObsLayer::Frontend,
        "queue_depth_max",
        r.queue_depth_max as f64,
    );
    obs.gauge_set(ObsLayer::Frontend, "queue_depth_mean", r.queue_depth_mean);
    obs.gauge_set(
        ObsLayer::Frontend,
        "throughput_ops_per_sec",
        r.throughput_ops_per_sec,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealdb::{StoreConfig, StoreKind};
    use workloads::micro::fill_random;

    fn preloaded(kind: StoreKind, gen: &RecordGenerator, n: u64) -> Store {
        let mut store = StoreConfig::new(kind, 32 << 10, 1 << 30).build().unwrap();
        fill_random(&mut store, gen, n, 3).unwrap();
        store
    }

    fn run(kind: StoreKind, cfg: &ServeConfig, gen: &RecordGenerator) -> ServeResult {
        let mut store = preloaded(kind, gen, cfg.record_count);
        run_serve(&mut store, gen, cfg).unwrap()
    }

    #[test]
    fn closed_loop_serves_all_ops() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::a(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            400,
            1000,
        );
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 400);
        assert!(r.sim_ns > 0);
        assert!(r.throughput_ops_per_sec > 0.0);
        assert_eq!(r.misses, 0, "closed keyspace must not miss");
        assert_eq!(r.latency.count, 400);
        assert!(r.latency.p95_ns >= r.latency.p50_ns);
        assert!(r.latency.max_ns >= r.latency.p99_ns);
    }

    #[test]
    fn group_commit_merges_concurrent_writers() {
        let gen = RecordGenerator::new(16, 100, 1);
        // Write-only mix, 8 clients hammering with zero think time: every
        // service round finds the other clients' writes queued behind the
        // head, so groups must form.
        let mut spec = WorkloadSpec::a();
        spec.mix.read = 0.0;
        spec.mix.update = 1.0;
        let cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            8,
            400,
            800,
        );
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 400);
        assert_eq!(r.write_ops, 400);
        assert!(
            r.write_calls < r.write_ops,
            "no grouping: {} calls for {} writes",
            r.write_calls,
            r.write_ops
        );
        assert!(r.max_group_len > 1);
        assert!(r.avg_group_size() > 1.5, "avg group {}", r.avg_group_size());
    }

    /// A single-put batch whose wire representation is exactly `wire`
    /// bytes (value length solved by search around the encoding
    /// overhead).
    fn batch_of_wire_size(wire: usize) -> WriteBatch {
        for vlen in wire.saturating_sub(64)..wire {
            let mut b = WriteBatch::new();
            b.put(b"k", &vec![0xAB; vlen]);
            if b.byte_size() == wire {
                return b;
            }
        }
        panic!("no single-put batch encodes to exactly {wire} wire bytes");
    }

    #[test]
    fn group_cap_admits_merges_up_to_the_exact_boundary() {
        // LevelDB's 1 MiB cap, probed at cap-1 / cap / cap+1 merged wire
        // bytes. The pre-fix check charged the follower its full wire
        // size (12-byte header included), so a merge landing exactly on
        // the cap — or within 11 bytes below it — was wrongly refused.
        let cap = 1 << 20;
        let head = batch_of_wire_size(cap / 2);
        let fit = |merged_wire: usize| {
            let follow = batch_of_wire_size(merged_wire - head.byte_size() + 12);
            assert_eq!(head.byte_size() + follow.body_bytes(), merged_wire);
            group_fits(&head, &follow, cap)
        };
        assert!(fit(cap - 1), "merge to cap-1 bytes must be admitted");
        assert!(fit(cap), "merge to exactly cap bytes must be admitted");
        assert!(!fit(cap + 1), "merge to cap+1 bytes must be refused");
    }

    #[test]
    fn merging_checks_the_cap_before_appending() {
        // The merged group never overshoots: appending happens only
        // after the size check admits the follower.
        let cap = 1 << 20;
        let mut head = batch_of_wire_size(cap - 100);
        let follow = batch_of_wire_size(200);
        assert!(!group_fits(&head, &follow, cap));
        // Were it appended anyway, the group would overshoot:
        head.append(&follow);
        assert!(head.byte_size() > cap);
    }

    #[test]
    fn oversized_single_batch_still_commits_alone() {
        let cap = 1 << 20;
        let head = batch_of_wire_size(cap + 1);
        // No follower may join it...
        assert!(!group_fits(&head, &batch_of_wire_size(50), cap));
        // ...but the serve loop still commits it: an over-cap head batch
        // admits no followers, it is never rejected.
        let gen = RecordGenerator::new(16, 100, 1);
        let mut spec = WorkloadSpec::a();
        spec.mix.read = 0.0;
        spec.mix.update = 1.0;
        let mut cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            100,
            400,
        );
        // Cap below a single update batch's wire size (16 B key + 100 B
        // value + framing): every batch is oversized and commits alone.
        cfg.max_group_bytes = 64;
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 100);
        assert_eq!(
            r.write_calls, r.write_ops,
            "oversized batches must commit alone, not merge"
        );
        assert_eq!(r.max_group_len, 1);
        assert!(r.max_group_wire > cfg.max_group_bytes);
    }

    #[test]
    fn merged_groups_never_overshoot_the_cap() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut spec = WorkloadSpec::a();
        spec.mix.read = 0.0;
        spec.mix.update = 1.0;
        let mut cfg = ServeConfig::new(
            spec,
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            8,
            400,
            800,
        );
        // A cap admitting a few followers per group: groups must form,
        // and no committed group may exceed the cap in wire bytes.
        cfg.max_group_bytes = 600;
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 400);
        assert!(r.max_group_len > 1, "groups must form under this cap");
        assert!(
            r.max_group_wire <= cfg.max_group_bytes,
            "group of {} wire bytes overshot the {} cap",
            r.max_group_wire,
            cfg.max_group_bytes
        );
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::b(),
            ArrivalProcess::OpenLoopPoisson { ops_per_sec: 300.0 },
            4,
            300,
            1000,
        );
        let a = run(StoreKind::SealDb, &cfg, &gen);
        let b = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.queue_delay, b.queue_delay);
        assert_eq!(
            a.throughput_ops_per_sec.to_bits(),
            b.throughput_ops_per_sec.to_bits()
        );
        assert_eq!(a.write_calls, b.write_calls);
        assert_eq!(a.stalls, b.stalls);
        // A different seed shifts the schedule.
        let c = run(StoreKind::SealDb, &cfg.clone().with_seed(99), &gen);
        assert_ne!(a.latency, c.latency);
    }

    #[test]
    fn overload_inflates_tail_latency() {
        let gen = RecordGenerator::new(16, 100, 1);
        let spec = WorkloadSpec::a();
        let n = 1000u64;
        // Measure saturation throughput closed-loop, then offer well
        // below and well above it open-loop.
        let closed = ServeConfig::new(spec, ArrivalProcess::ClosedLoop { think_ns: 0 }, 4, 300, n);
        let sat = run(StoreKind::SealDb, &closed, &gen).throughput_ops_per_sec;
        let at = |x: f64| {
            let cfg = ServeConfig::new(
                spec,
                ArrivalProcess::OpenLoopPoisson {
                    ops_per_sec: sat * x / 4.0,
                },
                4,
                300,
                n,
            );
            run(StoreKind::SealDb, &cfg, &gen)
        };
        let light = at(0.3);
        let heavy = at(2.0);
        assert!(
            heavy.latency.p99_ns > light.latency.p99_ns,
            "overload p99 {} must exceed light-load p99 {}",
            heavy.latency.p99_ns,
            light.latency.p99_ns
        );
        assert!(
            heavy.queue_delay.mean_ns > light.queue_delay.mean_ns,
            "overload must queue"
        );
        assert!(heavy.queue_depth_max >= light.queue_depth_max);
    }

    #[test]
    fn frontend_metrics_reach_the_obs_layer() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::a(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            2,
            200,
            500,
        );
        let mut store = preloaded(StoreKind::SealDb, &gen, cfg.record_count);
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        let m = store.metrics_snapshot();
        let h = m.obs.histogram(ObsLayer::Frontend, "latency_ns").unwrap();
        assert_eq!(h.count(), r.ops);
        assert_eq!(m.obs.registry.counter(ObsLayer::Frontend, "ops"), r.ops);
        assert_eq!(
            m.obs.registry.counter(ObsLayer::Frontend, "write_calls"),
            r.write_calls
        );
        assert!(
            m.obs
                .registry
                .gauge(ObsLayer::Frontend, "throughput_ops_per_sec")
                > 0.0
        );
    }

    /// Extent of the largest live table — the degraded-mode tests damage
    /// it so the read path is guaranteed to trip over the fault.
    fn largest_file_extent(store: &Store) -> smr_sim::Extent {
        let v = store.db.current_version();
        let f = v
            .files
            .iter()
            .flatten()
            .max_by_key(|f| f.size)
            .expect("preload left no tables")
            .clone();
        store.db.ctx().lock().fs.file_extent(f.id).unwrap()
    }

    #[test]
    fn backoff_doubles_then_caps() {
        // Doubles from the base, clamps at the cap, never overflows.
        assert_eq!(bounded_backoff_ns(500_000, 2_000_000, 0), 500_000);
        assert_eq!(bounded_backoff_ns(500_000, 2_000_000, 1), 1_000_000);
        assert_eq!(bounded_backoff_ns(500_000, 2_000_000, 2), 2_000_000);
        assert_eq!(bounded_backoff_ns(500_000, 2_000_000, 3), 2_000_000);
        assert_eq!(bounded_backoff_ns(500_000, 2_000_000, 200), 2_000_000);
        assert_eq!(bounded_backoff_ns(u64::MAX, u64::MAX, 63), u64::MAX);
        // A cap below the base clamps up to the base; zeros floor at 1.
        assert_eq!(bounded_backoff_ns(500_000, 1, 5), 500_000);
        assert_eq!(bounded_backoff_ns(0, 0, 0), 1);
        assert_eq!(bounded_backoff_ns(0, 0, 10), 1);
    }

    /// The boundary the redirect-plus-retry bug lived on: an op that
    /// fails at TWO points (failover redirect timed out AND the read
    /// exhausted its retries) charges the client's budget exactly once.
    /// Under the old per-site accounting a budget of 2 tripped after
    /// one such op; it must take two failing ops.
    #[test]
    fn error_budget_charges_each_op_at_most_once() {
        let mut b = ClientBudget::new(2, 2);
        // One op, two failure events: one charge, budget not tripped.
        assert!(!b.note_op(0, 2));
        assert_eq!(b.failures(0), 1);
        assert!(!b.tripped(0));
        // A clean op charges nothing.
        assert!(!b.note_op(0, 0));
        assert_eq!(b.failures(0), 1);
        // The second failing op (again double-failed) trips the budget,
        // exactly once — the latch never re-fires.
        assert!(b.note_op(0, 2));
        assert!(b.tripped(0));
        assert!(!b.note_op(0, 1));
        assert_eq!(b.failures(0), 3);
        // Other clients are untouched.
        assert_eq!(b.failures(1), 0);
        assert!(!b.tripped(1));
    }

    /// A zero configured budget behaves like 1 (the serve loop's
    /// historical `.max(1)` floor): the first failing op trips it.
    #[test]
    fn error_budget_zero_floors_at_one() {
        let mut b = ClientBudget::new(1, 0);
        assert!(!b.note_op(0, 0));
        assert!(b.note_op(0, 1));
        assert!(b.tripped(0));
    }

    #[test]
    fn scans_over_a_dead_table_fail_as_reads_without_ending_the_run() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut store = preloaded(StoreKind::SealDb, &gen, 200);
        let ext = largest_file_extent(&store);
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(smr_sim::Extent::new(ext.offset, ext.len));
        let cfg = ServeConfig::new(
            WorkloadSpec::e(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            2,
            100,
            200,
        );
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        assert!(r.failed_reads > 0, "scans into the dead table must fail");
        assert_eq!(r.ops + r.abandoned_ops, 100, "every op is accounted");
    }

    #[test]
    fn degraded_reads_wait_capped_backoff_on_the_simulated_clock() {
        let gen = RecordGenerator::new(16, 100, 1);
        let mut store = preloaded(StoreKind::SealDb, &gen, 200);
        let ext = largest_file_extent(&store);
        // Persistent read errors: every retry fails, so the degraded
        // read path walks the full backoff schedule.
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(smr_sim::Extent::new(ext.offset, ext.len));
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            1,
            1,
            200,
        );
        cfg.read_retries = 10;
        cfg.retry_backoff_ns = 1_000_000;
        cfg.retry_backoff_max_ns = 2_000_000;
        let key = gen.key(0);
        let t0 = store.clock_ns();
        let out = degraded_get(&mut store, &cfg, &key);
        assert!(out.failed);
        let waited = store.clock_ns() - t0;
        // Uncapped doubling would wait 1+2+4+...+512 = 1023 ms; the cap
        // bounds the schedule at 1 + 2 + 8*2 = 19 ms (plus read time).
        let capped_total = 19_000_000u64;
        assert!(
            waited >= capped_total,
            "backoff waits missing: {waited} < {capped_total}"
        );
        assert!(
            waited < 100_000_000,
            "cap not applied: waited {waited} ns, uncapped schedule is ~1s"
        );
    }

    #[test]
    fn clean_run_reports_no_degradation() {
        let gen = RecordGenerator::new(16, 100, 1);
        let cfg = ServeConfig::new(
            WorkloadSpec::b(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            300,
            800,
        );
        let r = run(StoreKind::SealDb, &cfg, &gen);
        assert_eq!(r.ops, 300);
        assert_eq!(r.degraded_reads, 0);
        assert_eq!(r.failed_reads, 0);
        assert_eq!(r.repaired_in_flight, 0);
        assert_eq!(r.abandoned_ops, 0);
        assert_eq!(r.clients_abandoned, 0);
    }

    #[test]
    fn serving_survives_persistent_corruption_and_repairs_in_flight() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 1000u64;
        let mut store = preloaded(StoreKind::SealDb, &gen, n);
        let ext = largest_file_extent(&store);
        // A latent-error region inside the table's first data block:
        // every read through it returns flipped bits, so point reads on
        // those keys keep failing until the scrubber rewrites the file.
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .corrupt_extent(smr_sim::Extent::new(ext.offset + 100, 64));
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop {
                think_ns: 2_000_000,
            },
            4,
            600,
            n,
        );
        cfg.idle_scrub_bytes = 64 << 10;
        cfg.client_error_budget = u64::MAX;
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        // The loop survived the fault: every op was served, none
        // abandoned, and the scrubber repaired the table under load.
        assert_eq!(r.ops, 600);
        assert_eq!(r.abandoned_ops, 0);
        assert!(
            r.repaired_in_flight >= 1,
            "idle scrub must repair the damaged table"
        );
        // Reads that hit the bad block before the repair were served as
        // misses; the closed keyspace makes them the only misses.
        assert_eq!(r.misses, r.failed_reads);
        // After the serve, the damage is gone: every key reads back.
        for i in 0..n {
            assert!(store.get(&gen.key(i)).unwrap().is_some(), "key {i}");
        }
        let m = store.metrics_snapshot();
        assert_eq!(
            m.obs
                .registry
                .counter(ObsLayer::Frontend, "repaired_in_flight"),
            r.repaired_in_flight
        );
    }

    #[test]
    fn vlog_store_serves_update_heavy_mixes_with_idle_gc() {
        // YCSB A (updates) and F (read-modify-writes) against a store
        // with key-value separation on: every update routes its value
        // through the vlog, idle gaps drive the cooperative GC, and the
        // closed keyspace proves no pointer ever dangles.
        let gen = RecordGenerator::new(16, 600, 1);
        let n = 400u64;
        for spec in [WorkloadSpec::a(), WorkloadSpec::f()] {
            let params = sealdb::VlogParams {
                segment_bytes: 16 << 10,
                value_threshold: 256,
                ..Default::default()
            };
            let mut store = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
                .with_vlog(params)
                .build()
                .unwrap();
            fill_random(&mut store, &gen, n, 3).unwrap();
            let mut cfg = ServeConfig::new(
                spec,
                ArrivalProcess::ClosedLoop {
                    think_ns: 40_000_000,
                },
                4,
                600,
                n,
            );
            cfg.idle_vlog_gc_bytes = 32 << 10;
            let r = run_serve(&mut store, &gen, &cfg).unwrap();
            assert_eq!(r.ops, 600, "workload {}", spec.name);
            assert_eq!(r.misses, 0, "workload {} missed reads", spec.name);
            assert!(
                r.vlog_gc_steps > 0,
                "workload {}: idle gaps must drive vlog GC",
                spec.name
            );
            // GC relocations must not have broken any pointer.
            for i in 0..n {
                assert!(store.get(&gen.key(i)).unwrap().is_some(), "key {i}");
            }
        }
    }

    #[test]
    fn idle_gc_runs_only_in_real_gaps() {
        // One closed-loop client with zero think time re-issues at its
        // completion instant: the next arrival is always already due,
        // so there is no idle gap and no idle GC step may run, however
        // much garbage the updates leave. With think time, gaps open
        // and the GC runs.
        let gen = RecordGenerator::new(16, 600, 1);
        let n = 400u64;
        for (think_ns, gaps) in [(0, false), (40_000_000, true)] {
            let params = sealdb::VlogParams {
                segment_bytes: 16 << 10,
                value_threshold: 256,
                ..Default::default()
            };
            let mut store = StoreConfig::new(StoreKind::SealDb, 32 << 10, 1 << 30)
                .with_vlog(params)
                .build()
                .unwrap();
            fill_random(&mut store, &gen, n, 3).unwrap();
            let mut spec = WorkloadSpec::a();
            spec.mix.read = 0.0;
            spec.mix.update = 1.0;
            let mut cfg =
                ServeConfig::new(spec, ArrivalProcess::ClosedLoop { think_ns }, 1, 600, n);
            cfg.idle_vlog_gc_bytes = 32 << 10;
            let r = run_serve(&mut store, &gen, &cfg).unwrap();
            assert_eq!(r.vlog_gc_steps > 0, gaps, "think {think_ns} ns");
            if !gaps {
                assert!(store.vlog_gc_pending(), "the updates must leave garbage");
            }
        }
    }

    #[test]
    fn error_budget_makes_clients_walk_away() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 1000u64;
        let mut store = preloaded(StoreKind::SealDb, &gen, n);
        let ext = largest_file_extent(&store);
        // The whole table sits on a dead region: every read into it
        // errors, unrecoverably. No scrub runs, so it never heals.
        store
            .db
            .ctx()
            .lock()
            .fs
            .disk_mut()
            .faults_mut()
            .fail_reads_permanently(ext);
        let mut cfg = ServeConfig::new(
            WorkloadSpec::c(),
            ArrivalProcess::ClosedLoop { think_ns: 0 },
            4,
            600,
            n,
        );
        cfg.client_error_budget = 3;
        cfg.read_retries = 1;
        let r = run_serve(&mut store, &gen, &cfg).unwrap();
        assert!(r.failed_reads >= 3, "reads into the dead table must fail");
        assert!(r.clients_abandoned >= 1, "budget must trip");
        assert!(r.abandoned_ops > 0);
        assert_eq!(
            r.ops + r.abandoned_ops,
            600,
            "every op is either served or abandoned"
        );
    }

    #[test]
    fn degraded_runs_with_same_seed_are_identical() {
        let gen = RecordGenerator::new(16, 100, 1);
        let n = 800u64;
        let go = || {
            let mut store = preloaded(StoreKind::SealDb, &gen, n);
            let ext = largest_file_extent(&store);
            store
                .db
                .ctx()
                .lock()
                .fs
                .disk_mut()
                .faults_mut()
                .corrupt_extent(smr_sim::Extent::new(ext.offset + 64, 32));
            let mut cfg = ServeConfig::new(
                WorkloadSpec::b(),
                ArrivalProcess::ClosedLoop {
                    think_ns: 1_000_000,
                },
                4,
                400,
                n,
            );
            cfg.idle_scrub_bytes = 64 << 10;
            run_serve(&mut store, &gen, &cfg).unwrap()
        };
        let a = go();
        let b = go();
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.failed_reads, b.failed_reads);
        assert_eq!(a.degraded_reads, b.degraded_reads);
        assert_eq!(a.repaired_in_flight, b.repaired_in_flight);
        assert_eq!(a.abandoned_ops, b.abandoned_ops);
    }
}
