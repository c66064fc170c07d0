//! `read_mostly`: one closed-loop client runs 90% get, 5% scan (1–100
//! keys) and 5% update over a preloaded SEALDB about 64× the size of its
//! block cache, keys drawn from a scrambled zipfian (θ = 0.99).
//!
//! The read path does the work: table cache, index, block read and
//! decode, block cache, and merge iterators for scans. Compaction is
//! almost idle; the updates keep writes beside the reads.

use crate::common::{self, Stream};
use crate::host::Stopwatch;
use crate::probe::Probe;
use crate::stats::{ms, quantile_u64, ratio, secs};
use crate::{Episode, EpisodeCtx, Metrics};
use lsm_core::util::rng::XorShift64;
use lsm_core::Result;
use workloads::{Distribution, RecordGenerator, ScrambledZipfian};

/// Records preloaded: 32 Ki × 1040 B ≈ 33 MiB ≈ 64 × the 512 KiB block
/// cache.
pub const RECORDS: u64 = 32 << 10;
/// Operations in the measured phase.
pub const OPS: u64 = 120_000;
/// Longest scan, keys.
pub const MAX_SCAN: u64 = 100;

/// The value of record `i` at update version `version` (0 = preloaded).
fn value_at(gen: &RecordGenerator, updates: u64, i: u64, version: u32) -> Vec<u8> {
    if version == 0 {
        gen.value(i)
    } else {
        let v = RecordGenerator::new(
            common::KEY_BYTES,
            common::VALUE_BYTES,
            updates ^ u64::from(version),
        );
        v.value(i)
    }
}

/// One drawn operation.
enum Op {
    Get(u64),
    Scan(u64, u64),
    Update(u64),
}

pub fn episode(ctx: &mut EpisodeCtx) -> Result<Episode> {
    let gen = common::generator(ctx.seed);
    let updates = common::stream_seed(ctx.seed, Stream::Updates);

    let t = Stopwatch::start();
    let mut store = common::sealdb_config(RECORDS).build()?;
    let created = Probe::of(&store);
    common::preload(&mut store, &gen, RECORDS, ctx.seed)?;
    let setup_s = t.secs();

    let ops_seed = common::stream_seed(ctx.seed, Stream::Ops);
    let mut op_rng = XorShift64::new(ops_seed);
    let mut key_rng = XorShift64::new(ops_seed ^ 0xDEAD_BEEF);
    let mut zipf = ScrambledZipfian::new(RECORDS);
    let mut version = vec![0u32; RECORDS as usize];
    let mut latency_ns: Vec<u64> = Vec::with_capacity(OPS as usize);
    let (mut gets, mut mismatched, mut checked) = (0u64, 0u64, 0u64);
    let check = ctx.checked;

    let before = Probe::of(&store);
    let clock0 = store.clock_ns();
    let t = Stopwatch::start();
    for n in 0..OPS {
        let mut tracer = ctx.tracer.as_deref_mut();
        let now = store.clock_ns();
        let span = tracer
            .as_mut()
            .map(|tr| (tr.enter("op", n, now), tr.enter("workloads.gen", n, now)));
        let r = op_rng.next_below(100);
        let i = zipf.next(&mut key_rng, RECORDS);
        let op = if r < 90 {
            Op::Get(i)
        } else if r < 95 {
            Op::Scan(i, 1 + key_rng.next_below(MAX_SCAN))
        } else {
            Op::Update(i)
        };
        let key = gen.key(i);
        let value = match op {
            Op::Update(i) => {
                version[i as usize] += 1;
                Some(value_at(&gen, updates, i, version[i as usize]))
            }
            _ => None,
        };
        let call = match (&mut tracer, span) {
            (Some(tr), Some((_, g))) => {
                tr.exit(g, now, "");
                let name = match op {
                    Op::Get(_) => "sealdb.get",
                    Op::Scan(..) => "sealdb.scan",
                    Op::Update(_) => "sealdb.put",
                };
                Some(tr.enter(name, n, now))
            }
            _ => None,
        };
        match op {
            Op::Get(i) => {
                gets += 1;
                let got = store.get(&key)?;
                if check {
                    checked += 1;
                    let want = value_at(&gen, updates, i, version[i as usize]);
                    mismatched += u64::from(got.as_deref() != Some(want.as_slice()));
                }
            }
            Op::Scan(i, len) => {
                let got = store.scan(&key, len as usize)?;
                if check {
                    let want = len.min(RECORDS - i);
                    checked += want;
                    mismatched += want.abs_diff(got.len() as u64);
                    for (j, (k, v)) in (i..RECORDS).zip(&got) {
                        let ok = *k == gen.key(j)
                            && *v == value_at(&gen, updates, j, version[j as usize]);
                        mismatched += u64::from(!ok);
                    }
                }
            }
            Op::Update(_) => store.put(&key, value.as_deref().expect("update value"))?,
        }
        let end = store.clock_ns();
        latency_ns.push(end - now);
        if let (Some(tr), Some(c), Some((op_span, _))) = (tracer, call, span) {
            tr.exit(c, end, "");
            tr.exit(op_span, end, "");
        }
    }
    let measured_s = t.secs();
    let sim_ns = store.clock_ns() - clock0;
    let after = Probe::of(&store);

    let mut sim = Metrics::default();
    sim.put("sim_ops_per_s", ratio(OPS as f64, secs(sim_ns)), "op/s");
    sim.put("sim_p50_ms", ms(quantile_u64(&mut latency_ns, 0.50)), "ms");
    sim.put("sim_p99_ms", ms(quantile_u64(&mut latency_ns, 0.99)), "ms");
    // The mixed phase writes only ~6 MB, and the compaction it triggers
    // depends on where the preload left each level (its own MWA ranges
    // 6.3-9.8 across seeds), so the write cost is taken over the whole
    // run, preload included.
    sim.put("mwa", after.mwa_since(&created), "ratio");
    sim.put("space_amp", after.space_amp(RECORDS), "ratio");
    after.layer_metrics(&before, OPS, gets, &mut sim);

    let mut host = Metrics::default();
    if let Some(tr) = ctx.tracer.as_deref() {
        let self_ns = tr.self_times();
        host.put(
            "workloads.gen_host_s",
            secs(self_ns.get("workloads.gen").copied().unwrap_or(0)),
            "s",
        );
        for (span, metric) in [
            ("sealdb.get", "sealdb.get_host_us"),
            ("sealdb.scan", "sealdb.scan_host_us"),
            ("sealdb.put", "sealdb.put_host_us"),
        ] {
            let mut d = tr.durations(span, None);
            host.put_owned(
                format!("{metric}.p50"),
                quantile_u64(&mut d, 0.50) as f64 / 1e3,
                "us",
            );
            host.put_owned(
                format!("{metric}.p99"),
                quantile_u64(&mut d, 0.99) as f64 / 1e3,
                "us",
            );
        }
        host.put("sealdb.preload_host_s", setup_s, "s");
    }

    // A closed loop runs at its saturation rate, the highest it sustains.
    let knee = sim.get("sim_ops_per_s");
    Ok(Episode {
        setup_s: vec![setup_s],
        measured_s,
        ops: OPS,
        failed: 0,
        sim,
        host,
        oracle: check.then_some((checked, mismatched)),
        knee,
        notes: vec![format!(
            "read_mostly: {RECORDS} records preloaded, {OPS} ops ({gets} gets), simulated {:.3} s",
            secs(sim_ns)
        )],
    })
}
