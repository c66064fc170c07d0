#!/usr/bin/env bash
# Full CI gate: formatting, release build, complete test suite,
# lint-clean clippy, and the workspace's own static-analysis pass.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings

# seal-lint: workspace determinism/recovery-safety/durability-ordering
# invariants (DESIGN.md §11, §16). Any non-baselined finding is a hard
# failure; stale baseline entries are warned on stderr.
cargo run -q -p seal-lint --release -- --baseline scripts/lint-baseline.txt

# The lint's machine-readable output must be byte-deterministic and
# carry the ordering rules: run the fixture tree twice in JSON mode
# (exit 1 expected — the fixtures are known-bad) and compare.
cargo run -q -p seal-lint --release -- --root crates/lint/tests/fixtures --everything --format json > lint-fixtures-a.json || true
cargo run -q -p seal-lint --release -- --root crates/lint/tests/fixtures --everything --format json > lint-fixtures-b.json || true
cmp lint-fixtures-a.json lint-fixtures-b.json
grep -q '"rule":"checkpoint-before-pointer"' lint-fixtures-a.json
grep -q '"rule":"recycle-after-fixups-durable"' lint-fixtures-a.json
rm -f lint-fixtures-a.json lint-fixtures-b.json
echo "seal-lint json self-check ok"

# Runtime half of the ordering contract: the debug-profile crash-point
# suites run with the OrderingAuditor live (debug_assert!s active), so
# a violated happens-before edge fails here even if every recovered
# value happens to read back correctly. (`cargo test --workspace` above
# also runs debug, but these suites are the designated ordering oracle —
# keep them green by name.)
cargo test -q --test vlog_crash_points --test crash_points --test recovery_hardening

# Artifacts: each `--X-out F --X-check F` pair regenerates one
# byte-deterministic BENCH_*.json and runs its Rust checker
# (crates/bench/src/*_run.rs), which enforces the artifact's schema,
# rejects any NaN/Inf, and gates its headline bounds:
# - metrics (BENCH_pr2): every required metric key per store;
# - serve (BENCH_pr3, --serving scale): SEALDB sustains strictly the
#   highest saturation throughput of the three stores;
# - scrub (BENCH_pr5): scrub-on cells lose ZERO keys while the scrub-off
#   baselines lose some;
# - replicate (BENCH_pr6): quorum-ack cells lose ZERO acked writes while
#   the primary-only baselines lose their unshipped tail, and RTO rises
#   strictly with link latency;
# - shard (BENCH_pr7, --serving scale): aggregate saturation rises
#   strictly over 1/2/4/8 shards, key placement imbalance stays within
#   1.25, and one mid-run split loses ZERO keys;
# - vlog (BENCH_pr8): separation cuts update-WA at every cell (>=2x on
#   workload A), raises the saturation knee, and loses no key.
cargo run -q --release -p bench -- --metrics-out BENCH_pr2.json --metrics-check BENCH_pr2.json --tiny
cargo run -q --release -p bench -- --serve-out BENCH_pr3.json --serve-check BENCH_pr3.json --serving
cargo run -q --release -p bench -- --scrub-out BENCH_pr5.json --scrub-check BENCH_pr5.json --tiny
cargo run -q --release -p bench -- --replicate-out BENCH_pr6.json --replicate-check BENCH_pr6.json --tiny
cargo run -q --release -p bench -- --shard-out BENCH_pr7.json --shard-check BENCH_pr7.json --serving
cargo run -q --release -p bench -- --vlog-out BENCH_pr8.json --vlog-check BENCH_pr8.json --tiny --value 4096 --load-mb 4 --ycsb-ops 4000

# Chaos artifact (BENCH_pr10): CHAOS_SCHEDULES (default 25) seeded
# random fault schedules over the composed stack — shard routing x
# replication x key-value separation x SMR device faults — each followed
# by the end-to-end durability oracle. Deliberately a DEBUG-profile run:
# debug builds arm the ordering auditors (DESIGN.md par. 16), so every
# schedule doubles as a happens-before oracle. The artifact is
# regenerated twice and must be byte-identical; its checker gates zero
# oracle violations and coverage spanning >=4 device and >=3 cluster
# fault classes.
cargo run -q -p bench -- --chaos-out BENCH_pr10.json --chaos-check BENCH_pr10.json --tiny --chaos-schedules "${CHAOS_SCHEDULES:-25}"
cargo run -q -p bench -- --chaos-out BENCH_pr10.json.rerun --tiny --chaos-schedules "${CHAOS_SCHEDULES:-25}"
cmp BENCH_pr10.json BENCH_pr10.json.rerun
rm BENCH_pr10.json.rerun
