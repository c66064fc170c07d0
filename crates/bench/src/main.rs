//! `seal-bench` — regenerates the paper's tables and figures.
//!
//! ```text
//! seal-bench <experiment> [options]
//!
//! experiments:
//!   fig02 fig03 table2 fig08 ... fig14 ablation hasmr | all
//!
//! options:
//!   --sstable-kb N   SSTable size in KiB        (default 256; paper 4096)
//!   --load-mb N      payload to load in MiB     (default 256; paper 102400)
//!   --value N        value size in bytes        (default 1024; paper 4096)
//!   --read-ops N     point/seq read operations  (default 20000)
//!   --ycsb-ops N     YCSB operations/workload   (default 10000)
//!   --seed N         determinism seed
//!   --out DIR        CSV output directory       (default results/)
//!   --tiny           CI-speed smoke scale
//!   --serving        canonical latency-under-load sweep scale
//!   --metrics-out F  run the observability trajectory, write artifact F
//!   --metrics-check F  validate a previously written artifact
//!   --serve-out F    run the latency-under-load sweep, write artifact F
//!   --serve-check F  validate a serve artifact and gate SEALDB's saturation lead
//!   --scrub-out F    run the durability-under-latent-errors sweep, write artifact F
//!   --scrub-check F  validate a previously written scrub artifact
//!   --replicate-out F    run the replication/failover sweep, write artifact F
//!   --replicate-check F  validate a previously written replication artifact
//!   --shard-out F    run the multi-shard scale-out sweep, write artifact F
//!   --shard-check F  validate a previously written shard artifact
//!   --vlog-out F     run the key-value-separation sweep, write artifact F
//!   --vlog-check F   validate a previously written vlog artifact
//!   --chaos-out F    run the composed-fault chaos sweep, write artifact F
//!   --chaos-check F  validate a previously written chaos artifact
//!   --chaos-schedules N  seeded schedules in the chaos sweep (default 25)
//! ```
//!
//! `serve` as an experiment name runs the sweep and prints the latency
//! table; `--metrics-out` / `--metrics-check` / `--serve-out` /
//! `--serve-check` work without an experiment name.

use bench::experiments::{self, Report};
use bench::BenchScale;
use std::io::Write as _;

#[derive(Default)]
struct MetricsArgs {
    out: Option<String>,
    check: Option<String>,
    serve_out: Option<String>,
    serve_check: Option<String>,
    scrub_out: Option<String>,
    scrub_check: Option<String>,
    replicate_out: Option<String>,
    replicate_check: Option<String>,
    shard_out: Option<String>,
    shard_check: Option<String>,
    vlog_out: Option<String>,
    vlog_check: Option<String>,
    chaos_out: Option<String>,
    chaos_check: Option<String>,
    chaos_schedules: usize,
}

fn parse_args() -> (Vec<String>, BenchScale, String, MetricsArgs) {
    let mut scale = BenchScale::default();
    let mut out_dir = "results".to_string();
    let mut metrics = MetricsArgs {
        chaos_schedules: 25,
        ..MetricsArgs::default()
    };
    let mut experiments = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let need = |i: &mut usize, args: &[String]| -> u64 {
        *i += 1;
        args.get(*i)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("missing/invalid numeric value for {}", args[*i - 1]);
                std::process::exit(2);
            })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--sstable-kb" => scale.sstable = need(&mut i, &args) << 10,
            "--load-mb" => scale.load_bytes = need(&mut i, &args) << 20,
            "--value" => scale.value_size = need(&mut i, &args) as usize,
            "--read-ops" => scale.read_ops = need(&mut i, &args),
            "--ycsb-ops" => scale.ycsb_ops = need(&mut i, &args),
            "--seed" => scale.seed = need(&mut i, &args),
            "--tiny" => scale = BenchScale::tiny(),
            "--serving" => scale = BenchScale::serving(),
            "--out" => {
                i += 1;
                out_dir = args.get(i).cloned().unwrap_or(out_dir);
            }
            "--metrics-out" => {
                i += 1;
                metrics.out = args.get(i).cloned();
            }
            "--metrics-check" => {
                i += 1;
                metrics.check = args.get(i).cloned();
            }
            "--serve-out" => {
                i += 1;
                metrics.serve_out = args.get(i).cloned();
            }
            "--serve-check" => {
                i += 1;
                metrics.serve_check = args.get(i).cloned();
            }
            "--scrub-out" => {
                i += 1;
                metrics.scrub_out = args.get(i).cloned();
            }
            "--scrub-check" => {
                i += 1;
                metrics.scrub_check = args.get(i).cloned();
            }
            "--replicate-out" => {
                i += 1;
                metrics.replicate_out = args.get(i).cloned();
            }
            "--replicate-check" => {
                i += 1;
                metrics.replicate_check = args.get(i).cloned();
            }
            "--shard-out" => {
                i += 1;
                metrics.shard_out = args.get(i).cloned();
            }
            "--shard-check" => {
                i += 1;
                metrics.shard_check = args.get(i).cloned();
            }
            "--vlog-out" => {
                i += 1;
                metrics.vlog_out = args.get(i).cloned();
            }
            "--vlog-check" => {
                i += 1;
                metrics.vlog_check = args.get(i).cloned();
            }
            "--chaos-out" => {
                i += 1;
                metrics.chaos_out = args.get(i).cloned();
            }
            "--chaos-check" => {
                i += 1;
                metrics.chaos_check = args.get(i).cloned();
            }
            "--chaos-schedules" => metrics.chaos_schedules = need(&mut i, &args) as usize,
            other => experiments.push(other.to_string()),
        }
        i += 1;
    }
    (experiments, scale, out_dir, metrics)
}

fn run_one(name: &str, scale: &BenchScale) -> Option<Report> {
    let started = std::time::Instant::now();
    let report = match name {
        "fig02" => experiments::fig02(scale),
        "fig03" => experiments::fig03(scale),
        "table2" => experiments::table2(scale),
        "fig08" => experiments::fig08(scale),
        "fig09" => experiments::fig09(scale),
        "fig10" => experiments::fig10(scale),
        "fig11" => experiments::fig11(scale),
        "fig12" => experiments::fig12(scale),
        "fig13" => experiments::fig13(scale),
        "fig14" => experiments::fig14(scale),
        "ablation" => experiments::ablation(scale),
        "hasmr" => experiments::hasmr(scale),
        "serve" => experiments::serve(scale),
        _ => {
            eprintln!("unknown experiment: {name}");
            return None;
        }
    };
    match report {
        Ok(r) => {
            println!("{}", r.render());
            println!("  [wall-clock {:.1} s]\n", started.elapsed().as_secs_f64());
            Some(r)
        }
        Err(e) => {
            eprintln!("experiment {name} failed: {e}");
            None
        }
    }
}

const ALL: [&str; 12] = [
    "fig02", "fig03", "table2", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "ablation", "hasmr",
];

fn run_metrics(scale: &BenchScale, metrics: &MetricsArgs) {
    if let Some(path) = &metrics.out {
        let started = std::time::Instant::now();
        match bench::metrics_run::metrics_trajectory(scale) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write metrics artifact");
                println!(
                    "wrote metrics artifact {path} ({} bytes) [wall-clock {:.1} s]",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("metrics trajectory failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read metrics artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::metrics_run::check_metrics_json(&content);
        if problems.is_empty() {
            println!("metrics artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("metrics artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics.serve_out {
        let started = std::time::Instant::now();
        match bench::serve_run::serve_sweep(scale) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write serve artifact");
                println!(
                    "wrote serve artifact {path} ({} bytes) [wall-clock {:.1} s]",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("serve sweep failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.serve_check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read serve artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::serve_run::gate_serve_json(&content);
        if problems.is_empty() {
            println!("serve artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("serve artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics.scrub_out {
        let started = std::time::Instant::now();
        match bench::scrub_run::scrub_sweep(scale) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write scrub artifact");
                println!(
                    "wrote scrub artifact {path} ({} bytes) [wall-clock {:.1} s]",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("scrub sweep failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.scrub_check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read scrub artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::scrub_run::check_scrub_json(&content);
        if problems.is_empty() {
            println!("scrub artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("scrub artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics.replicate_out {
        let started = std::time::Instant::now();
        match bench::replicate_run::replicate_sweep(scale) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write replication artifact");
                println!(
                    "wrote replication artifact {path} ({} bytes) [wall-clock {:.1} s]",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("replication sweep failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.replicate_check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read replication artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::replicate_run::check_replicate_json(&content);
        if problems.is_empty() {
            println!("replication artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("replication artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics.shard_out {
        let started = std::time::Instant::now();
        match bench::shard_run::shard_sweep(scale) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write shard artifact");
                println!(
                    "wrote shard artifact {path} ({} bytes) [wall-clock {:.1} s]",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("shard sweep failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.shard_check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read shard artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::shard_run::check_shard_json(&content);
        if problems.is_empty() {
            println!("shard artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("shard artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics.vlog_out {
        let started = std::time::Instant::now();
        match bench::vlog_run::vlog_sweep(scale) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write vlog artifact");
                println!(
                    "wrote vlog artifact {path} ({} bytes) [wall-clock {:.1} s]",
                    json.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("vlog sweep failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.vlog_check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read vlog artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::vlog_run::check_vlog_json(&content);
        if problems.is_empty() {
            println!("vlog artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("vlog artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
    if let Some(path) = &metrics.chaos_out {
        let started = std::time::Instant::now();
        match bench::chaos_run::chaos_sweep(scale, metrics.chaos_schedules) {
            Ok(json) => {
                std::fs::write(path, &json).expect("write chaos artifact");
                println!(
                    "wrote chaos artifact {path} ({} bytes, {} schedules) [wall-clock {:.1} s]",
                    json.len(),
                    metrics.chaos_schedules,
                    started.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("chaos sweep failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &metrics.chaos_check {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read chaos artifact {path}: {e}");
            std::process::exit(1);
        });
        let problems = bench::chaos_run::check_chaos_json(&content);
        if problems.is_empty() {
            println!("chaos artifact {path} is valid");
        } else {
            for p in &problems {
                eprintln!("chaos artifact {path}: {p}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let (mut wanted, scale, out_dir, metrics) = parse_args();
    if metrics.out.is_some()
        || metrics.check.is_some()
        || metrics.serve_out.is_some()
        || metrics.serve_check.is_some()
        || metrics.scrub_out.is_some()
        || metrics.scrub_check.is_some()
        || metrics.replicate_out.is_some()
        || metrics.replicate_check.is_some()
        || metrics.shard_out.is_some()
        || metrics.shard_check.is_some()
        || metrics.vlog_out.is_some()
        || metrics.vlog_check.is_some()
        || metrics.chaos_out.is_some()
        || metrics.chaos_check.is_some()
    {
        run_metrics(&scale, &metrics);
        if wanted.is_empty() {
            return;
        }
    }
    if wanted.is_empty() {
        eprintln!("usage: seal-bench <fig02|fig03|table2|fig08..fig14|serve|all> [options]");
        eprintln!("       seal-bench --metrics-out FILE | --metrics-check FILE [options]");
        eprintln!("       seal-bench --serve-out FILE | --serve-check FILE [options]");
        eprintln!("       seal-bench --scrub-out FILE | --scrub-check FILE [options]");
        eprintln!("       seal-bench --replicate-out FILE | --replicate-check FILE [options]");
        eprintln!("       seal-bench --shard-out FILE | --shard-check FILE [options]");
        eprintln!("       seal-bench --vlog-out FILE | --vlog-check FILE [options]");
        eprintln!("       seal-bench --chaos-out FILE | --chaos-check FILE [--chaos-schedules N] [options]");
        std::process::exit(2);
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
    }
    println!(
        "scale: sstable {} KiB, band {} KiB, value {} B, load {} MiB ({} records), capacity {} MiB, linear factor {:.4}\n",
        scale.sstable >> 10,
        scale.band_size() >> 10,
        scale.value_size,
        scale.load_bytes >> 20,
        scale.load_records(),
        scale.disk_capacity() >> 20,
        scale.linear_factor(),
    );
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    for name in &wanted {
        if let Some(report) = run_one(name, &scale) {
            for csv in &report.csvs {
                let path = format!("{out_dir}/{}", csv.name);
                let mut f = std::fs::File::create(&path).expect("create csv");
                f.write_all(csv.content.as_bytes()).expect("write csv");
                println!("  wrote {path}");
            }
        }
    }
}
