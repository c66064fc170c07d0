//! Micro-benchmarks of the core components (wall-clock performance of
//! the library itself, not simulated time).

use bench::timing::{bench, bench_with_setup};
use lsm_core::memtable::MemTable;
use lsm_core::sstable::{scan_all, verify_block, TableBuilder, TableOptions};
use lsm_core::types::{make_internal_key, ValueType};
use lsm_core::util::bloom::BloomFilter;
use lsm_core::util::crc32c;
use lsm_core::util::rng::XorShift64;
use placement::{Allocator, DynamicBandAlloc};
use workloads::{Distribution, ScrambledZipfian};

fn bench_crc32c() {
    let data = vec![0xA5u8; 64 * 1024];
    bench("crc32c/64KiB", || {
        crc32c::crc32c(std::hint::black_box(&data))
    });
    // One default-size data block: what a block-cache miss pays.
    let block = &data[..4096];
    bench("crc32c/4KiB", || {
        crc32c::crc32c(std::hint::black_box(block))
    });
    let mut image = block.to_vec();
    image.push(0);
    let crc = crc32c::mask(crc32c::extend(crc32c::crc32c(block), &[0]));
    image.extend_from_slice(&crc.to_le_bytes());
    bench("block/verify-4KiB", || {
        verify_block(std::hint::black_box(&image)).unwrap()
    });
}

fn bench_bloom() {
    let keys: Vec<Vec<u8>> = (0..10_000u32)
        .map(|i| format!("key{i:08}").into_bytes())
        .collect();
    bench("bloom/build-10k", || {
        BloomFilter::build(std::hint::black_box(&keys), 10)
    });
    let filter = BloomFilter::build(&keys, 10);
    let mut i = 0u32;
    bench("bloom/query", || {
        i = i.wrapping_add(1);
        filter.may_contain(format!("key{i:08}").as_bytes())
    });
}

fn bench_memtable() {
    bench_with_setup(
        "memtable/insert-10k",
        || MemTable::new(42),
        |mut m| {
            for i in 0..10_000u64 {
                let k = format!("key{:012}", (i * 2654435761) % 10_000);
                m.add(i + 1, ValueType::Value, k.as_bytes(), b"value");
            }
            m
        },
    );
    let mut mem = MemTable::new(42);
    for i in 0..10_000u64 {
        let k = format!("key{:012}", (i * 2654435761) % 10_000);
        mem.add(i + 1, ValueType::Value, k.as_bytes(), b"value");
    }
    let mut i = 0u64;
    bench("memtable/get", || {
        i = (i + 7919) % 10_000;
        mem.get(format!("key{i:012}").as_bytes(), u64::MAX >> 8)
    });
}

fn bench_table() {
    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..5000u64)
        .map(|i| {
            (
                make_internal_key(format!("key{i:010}").as_bytes(), 1, ValueType::Value),
                vec![0u8; 100],
            )
        })
        .collect();
    bench("table/build-5k", || {
        let mut t = TableBuilder::new(TableOptions::default());
        for (k, v) in &entries {
            t.add(k, v);
        }
        t.finish()
    });
    // The value-log store's table shape: 25-byte pointers as values and
    // no bloom filter.
    let ptr_opts = TableOptions {
        bloom_bits_per_key: 0,
        ..TableOptions::default()
    };
    bench("table/build-5k-ptr", || {
        let mut t = TableBuilder::new(ptr_opts);
        for (k, _) in &entries {
            t.add(k, &[1u8; 25]);
        }
        t.finish()
    });
    let mut t = TableBuilder::new(TableOptions::default());
    for (k, v) in &entries {
        t.add(k, v);
    }
    let data = t.finish();
    bench("table/scan_all-5k", || {
        scan_all(std::hint::black_box(&data)).unwrap()
    });
}

fn bench_allocator() {
    bench_with_setup(
        "dynamic-band/alloc-free-churn",
        || DynamicBandAlloc::new(1 << 34, 4 << 20, 4 << 20),
        |mut a| {
            let mut live = Vec::new();
            let mut rng = XorShift64::new(7);
            for _ in 0..1000 {
                if live.len() > 20 && rng.one_in(2) {
                    let i = (rng.next_below(live.len() as u64)) as usize;
                    let e = live.swap_remove(i);
                    a.free(e);
                } else {
                    let size = (1 + rng.next_below(10)) * (4 << 20);
                    live.push(a.allocate(size).unwrap());
                }
            }
            (a, live)
        },
    );
}

fn bench_zipfian() {
    let mut z = ScrambledZipfian::new(1_000_000);
    let mut rng = XorShift64::new(9);
    bench("zipfian/next", || z.next(&mut rng, 1_000_000));
}

fn main() {
    bench_crc32c();
    bench_bloom();
    bench_memtable();
    bench_table();
    bench_allocator();
    bench_zipfian();
}
