//! The artifact registry: one row per byte-deterministic `BENCH_*.json`
//! artifact. `seal-bench` derives its `--<name>-out F` /
//! `--<name>-check F` flags, its usage text, the write step and the
//! check step from this table, so adding an artifact means adding one
//! entry here.

use crate::{
    chaos_run, metrics_run, replicate_run, scrub_run, serve_run, shard_run, vlog_run, BenchScale,
};
use lsm_core::Result;

/// One artifact: how to produce it and how to validate it.
#[derive(Debug)]
pub struct Artifact {
    /// Flag stem: `--<name>-out F` writes the artifact to `F`,
    /// `--<name>-check F` validates the artifact in `F`.
    pub name: &'static str,
    /// What the artifact is called in progress and problem messages.
    pub noun: &'static str,
    /// The sweep the artifact records, for the usage text.
    pub about: &'static str,
    /// Runs the sweep at a scale and returns the artifact text.
    pub run: fn(&BenchScale) -> Result<String>,
    /// Validates artifact text; returns the problems, empty when valid.
    pub check: fn(&str) -> Vec<String>,
}

/// Every artifact, in the order `seal-bench` runs them.
pub const ARTIFACTS: [Artifact; 7] = [
    Artifact {
        name: "metrics",
        noun: "metrics",
        about: "observability trajectory (BENCH_pr2.json)",
        run: metrics_run::metrics_trajectory,
        check: metrics_run::check_metrics_json,
    },
    Artifact {
        name: "serve",
        noun: "serve",
        about: "latency-under-load sweep; check gates SEALDB's saturation lead (BENCH_pr3.json)",
        run: serve_run::serve_sweep,
        check: serve_run::gate_serve_json,
    },
    Artifact {
        name: "scrub",
        noun: "scrub",
        about: "durability-under-latent-errors sweep (BENCH_pr5.json)",
        run: scrub_run::scrub_sweep,
        check: scrub_run::check_scrub_json,
    },
    Artifact {
        name: "replicate",
        noun: "replication",
        about: "replication/failover sweep (BENCH_pr6.json)",
        run: replicate_run::replicate_sweep,
        check: replicate_run::check_replicate_json,
    },
    Artifact {
        name: "shard",
        noun: "shard",
        about: "multi-shard scale-out sweep (BENCH_pr7.json)",
        run: shard_run::shard_sweep,
        check: shard_run::check_shard_json,
    },
    Artifact {
        name: "vlog",
        noun: "vlog",
        about: "key-value-separation sweep (BENCH_pr8.json)",
        run: vlog_run::vlog_sweep,
        check: vlog_run::check_vlog_json,
    },
    Artifact {
        name: "chaos",
        noun: "chaos",
        about: "composed-fault chaos sweep, --chaos-schedules N schedules (BENCH_pr10.json)",
        run: chaos_run::chaos_sweep,
        check: chaos_run::check_chaos_json,
    },
];
