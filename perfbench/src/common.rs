//! Configuration shared by every workload: record shape, store geometry
//! and the seed streams derived from `--seed`.

use lsm_core::Result;
use sealdb::{Store, StoreConfig, StoreKind};
use workloads::RecordGenerator;

/// Key size, bytes.
pub const KEY_BYTES: usize = 16;
/// Value size, bytes.
pub const VALUE_BYTES: usize = 1024;
/// SSTable size; the block cache is two tables (512 KiB).
pub const SSTABLE_BYTES: u64 = 256 << 10;
/// Disk capacity as a multiple of the user data it will hold.
pub const CAPACITY_FACTOR: u64 = 10;

/// Bytes of one record (key + value).
pub const RECORD_BYTES: u64 = (KEY_BYTES + VALUE_BYTES) as u64;

/// Independent input streams derived from the workload seed, so that
/// changing one (say, the load order) never shifts another.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Value bytes of every record.
    Values,
    /// Random load order.
    LoadOrder,
    /// Operation and key draws of the measured phase.
    Ops,
    /// Values written by updates (read-mostly workload).
    Updates,
}

/// The seed of one input stream.
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    let salt: u64 = match stream {
        Stream::Values => 0x5EED_0001,
        Stream::LoadOrder => 0x5EED_0002,
        Stream::Ops => 0x5EED_0003,
        Stream::Updates => 0x5EED_0004,
    };
    // SplitMix64 finaliser: nearby seeds give unrelated streams.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The record generator of a run: 16 B keys, 1 KiB values.
pub fn generator(seed: u64) -> RecordGenerator {
    RecordGenerator::new(KEY_BYTES, VALUE_BYTES, stream_seed(seed, Stream::Values))
}

/// Disk capacity for `records` records.
pub fn capacity(records: u64) -> u64 {
    records * RECORD_BYTES * CAPACITY_FACTOR
}

/// A SEALDB configuration sized for `records` records, buffered WAL
/// (`sync_writes` off, the `StoreConfig` default).
pub fn sealdb_config(records: u64) -> StoreConfig {
    StoreConfig::new(StoreKind::SealDb, SSTABLE_BYTES, capacity(records))
}

/// Loads records `0..n` in random order and flushes: the preload of the
/// read-mostly and value-log workloads (`workloads::fill_random`).
pub fn preload(store: &mut Store, gen: &RecordGenerator, n: u64, seed: u64) -> Result<()> {
    workloads::fill_random(store, gen, n, stream_seed(seed, Stream::LoadOrder))?;
    Ok(())
}

/// Reads back records `0..n` and counts those that are missing or hold
/// another value than `gen.value(i)`.
pub fn read_back(store: &mut Store, gen: &RecordGenerator, n: u64) -> Result<u64> {
    let mut bad = 0;
    for i in 0..n {
        if store.get(&gen.key(i))? != Some(gen.value(i)) {
            bad += 1;
        }
    }
    Ok(bad)
}
