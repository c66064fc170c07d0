//! `seal-bench` — regenerates the paper's tables and figures, and the
//! byte-deterministic `BENCH_*.json` artifacts.
//!
//! ```text
//! seal-bench <experiment>... [options]
//! seal-bench --<artifact>-out F | --<artifact>-check F ... [options]
//! ```
//!
//! Experiments are the [`EXPERIMENTS`] table (`all` runs every one but
//! `serve`). The artifact flags come from [`bench::artifact::ARTIFACTS`]
//! and the numeric options from [`KNOBS`], whose defaults are read from
//! [`BenchScale::default`]; run without arguments for the full usage
//! text. A preset (`--tiny`, `--serving`) applies before the numeric
//! options wherever it appears. Exit status: 2 for a bad invocation, 1
//! when an experiment, a sweep or a check fails.

use bench::artifact::{Artifact, ARTIFACTS};
use bench::experiments::{self, Report};
use bench::BenchScale;
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

/// Runs one experiment at a scale.
type Experiment = fn(&BenchScale) -> lsm_core::Result<Report>;

/// Every experiment by name; `all` runs each one but `serve`.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("fig02", experiments::fig02),
    ("fig03", experiments::fig03),
    ("table2", experiments::table2),
    ("fig08", experiments::fig08),
    ("fig09", experiments::fig09),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
    ("fig14", experiments::fig14),
    ("ablation", experiments::ablation),
    ("hasmr", experiments::hasmr),
    ("serve", experiments::serve),
];

/// A numeric option overriding one field of the scale.
struct Knob {
    flag: &'static str,
    help: &'static str,
    get: fn(&BenchScale) -> u64,
    set: fn(&mut BenchScale, u64),
}

/// The numeric options, in usage order.
const KNOBS: [Knob; 7] = [
    Knob {
        flag: "--sstable-kb",
        help: "SSTable size in KiB",
        get: |s| s.sstable >> 10,
        set: |s, v| s.sstable = v << 10,
    },
    Knob {
        flag: "--load-mb",
        help: "payload to load in MiB",
        get: |s| s.load_bytes >> 20,
        set: |s, v| s.load_bytes = v << 20,
    },
    Knob {
        flag: "--value",
        help: "value size in bytes",
        get: |s| s.value_size as u64,
        set: |s, v| s.value_size = v as usize,
    },
    Knob {
        flag: "--read-ops",
        help: "point/seq read operations",
        get: |s| s.read_ops,
        set: |s, v| s.read_ops = v,
    },
    Knob {
        flag: "--ycsb-ops",
        help: "YCSB operations per workload",
        get: |s| s.ycsb_ops,
        set: |s, v| s.ycsb_ops = v,
    },
    Knob {
        flag: "--seed",
        help: "determinism seed",
        get: |s| s.seed,
        set: |s, v| s.seed = v,
    },
    Knob {
        flag: "--chaos-schedules",
        help: "seeded schedules in the chaos sweep",
        get: |s| s.chaos_schedules as u64,
        set: |s, v| s.chaos_schedules = v as usize,
    },
];

/// The whole-scale preset a flag names; presets apply before the
/// numeric options.
fn preset(flag: &str) -> Option<BenchScale> {
    match flag {
        "--tiny" => Some(BenchScale::tiny()),
        "--serving" => Some(BenchScale::serving()),
        _ => None,
    }
}

/// A parsed command line.
#[derive(Debug)]
struct Args {
    /// Indices into [`EXPERIMENTS`], in run order.
    experiments: Vec<usize>,
    scale: BenchScale,
    /// CSV output directory.
    out_dir: String,
    /// Per [`ARTIFACTS`] entry: the `--<name>-out` and `--<name>-check`
    /// paths.
    paths: Vec<[Option<String>; 2]>,
}

/// Maps `--<name>-out` / `--<name>-check` to (artifact index, 0 or 1).
fn artifact_flag(arg: &str) -> Option<(usize, usize)> {
    let stem = arg.strip_prefix("--")?;
    ARTIFACTS
        .iter()
        .enumerate()
        .find_map(|(i, a)| match stem.strip_prefix(a.name)? {
            "-out" => Some((i, 0)),
            "-check" => Some((i, 1)),
            _ => None,
        })
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut overrides = Vec::new();
    let mut args = Args {
        experiments: Vec::new(),
        scale: BenchScale::default(),
        out_dir: "results".to_string(),
        paths: vec![[None, None]; ARTIFACTS.len()],
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        if let Some(scale) = preset(arg) {
            args.scale = scale;
        } else if let Some(knob) = KNOBS.iter().find(|k| k.flag == arg) {
            let v = value()?;
            let n = v
                .parse::<u64>()
                .map_err(|_| format!("invalid numeric value {v:?} for {arg}"))?;
            overrides.push((knob, n));
        } else if arg == "--out" {
            args.out_dir = value()?;
        } else if let Some((i, slot)) = artifact_flag(arg) {
            args.paths[i][slot] = Some(value()?);
        } else if arg == "all" {
            args.experiments
                .extend((0..EXPERIMENTS.len()).filter(|&i| EXPERIMENTS[i].0 != "serve"));
        } else if let Some(i) = EXPERIMENTS.iter().position(|e| e.0 == arg) {
            args.experiments.push(i);
        } else {
            return Err(format!("unknown experiment or option {arg:?}"));
        }
    }
    for (knob, n) in overrides {
        (knob.set)(&mut args.scale, n);
    }
    Ok(args)
}

fn usage() -> String {
    let default = BenchScale::default();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let mut u = String::from(
        "usage: seal-bench <experiment>... [options]\n       \
         seal-bench --<artifact>-out F | --<artifact>-check F ... [options]\n\n",
    );
    let _ = writeln!(
        u,
        "experiments: {} | all (all but serve)\n",
        names.join(" ")
    );
    u.push_str("artifacts (-out F runs the sweep and writes F, -check F validates F):\n");
    for a in &ARTIFACTS {
        let _ = writeln!(u, "  {:<22} {}", format!("--{}-out|check", a.name), a.about);
    }
    u.push_str("\noptions:\n");
    for k in &KNOBS {
        let _ = writeln!(
            u,
            "  {:<22} {} (default {})",
            format!("{} N", k.flag),
            k.help,
            (k.get)(&default)
        );
    }
    u.push_str(concat!(
        "  --tiny                 preset: CI-speed smoke scale\n",
        "  --serving              preset: canonical serving-sweep scale\n",
        "                         (a preset applies before the N options)\n",
        "  --out DIR              CSV output directory (default results)\n",
    ));
    u
}

fn write_artifact(a: &Artifact, scale: &BenchScale, path: &str) {
    let started = Instant::now();
    let json = (a.run)(scale).unwrap_or_else(|e| {
        eprintln!("{} sweep failed: {e}", a.noun);
        exit(1)
    });
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {} artifact {path}: {e}", a.noun);
        exit(1);
    }
    println!(
        "wrote {} artifact {path} ({} bytes) [wall-clock {:.1} s]",
        a.noun,
        json.len(),
        started.elapsed().as_secs_f64()
    );
}

fn check_artifact(a: &Artifact, path: &str) {
    let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {} artifact {path}: {e}", a.noun);
        exit(1)
    });
    let problems = (a.check)(&content);
    for p in &problems {
        eprintln!("{} artifact {path}: {p}", a.noun);
    }
    if !problems.is_empty() {
        exit(1);
    }
    println!("{} artifact {path} is valid", a.noun);
}

/// Runs the requested experiments, writing their CSVs; false when any
/// of them failed.
fn run_experiments(args: &Args) -> bool {
    let scale = &args.scale;
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
    std::fs::create_dir_all(&args.out_dir).expect("create output dir");
    let mut ok = true;
    for &i in &args.experiments {
        let (name, run) = EXPERIMENTS[i];
        let started = Instant::now();
        match run(scale) {
            Ok(report) => {
                println!("{}", report.render());
                println!("  [wall-clock {:.1} s]\n", started.elapsed().as_secs_f64());
                for csv in &report.csvs {
                    let path = format!("{}/{}", args.out_dir, csv.name);
                    std::fs::write(&path, &csv.content).expect("write csv");
                    println!("  wrote {path}");
                }
            }
            Err(e) => {
                eprintln!("experiment {name} failed: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("seal-bench: {e}\n\n{}", usage());
        exit(2)
    });
    if args.experiments.is_empty() && args.paths.iter().flatten().all(Option::is_none) {
        eprint!("{}", usage());
        exit(2);
    }
    for (a, [out, check]) in ARTIFACTS.iter().zip(&args.paths) {
        if let Some(path) = out {
            write_artifact(a, &args.scale, path);
        }
        if let Some(path) = check {
            check_artifact(a, path);
        }
    }
    if !args.experiments.is_empty() && !run_experiments(&args) {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn presets_apply_before_overrides_wherever_they_appear() {
        for line in [
            "--seed 7 --chaos-schedules 3 --tiny",
            "--tiny --seed 7 --chaos-schedules 3",
        ] {
            let s = parse(&argv(line)).unwrap().scale;
            assert_eq!((s.seed, s.chaos_schedules), (7, 3), "{line}");
            assert_eq!(s.sstable, BenchScale::tiny().sstable, "{line}");
        }
        let s = parse(&argv("--load-mb 4 --serving")).unwrap().scale;
        assert_eq!(s.load_bytes, 4 << 20);
        assert_eq!(s.value_size, BenchScale::serving().value_size);
    }

    #[test]
    fn bad_invocations_are_rejected() {
        for line in [
            "fig99",
            "--sed 7",
            "--scrub-out",
            "--tiny --chaos-check",
            "--seed",
            "--seed x",
            "--out",
        ] {
            assert!(parse(&argv(line)).is_err(), "{line}");
        }
        let ok = parse(&argv("fig02 serve all")).unwrap();
        assert_eq!(ok.experiments.len(), 2 + EXPERIMENTS.len() - 1);
        assert_eq!(EXPERIMENTS[ok.experiments[1]].0, "serve");
        assert!(ok.experiments[2..]
            .iter()
            .all(|&i| EXPERIMENTS[i].0 != "serve"));
    }

    #[test]
    fn artifact_registry_drives_the_cli() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.name != a.name),
                "duplicate artifact {}",
                a.name
            );
            assert!(!(a.check)("{}").is_empty(), "{} accepts \"{{}}\"", a.name);
            let line = format!("--{0}-out x.json --{0}-check y.json", a.name);
            let args = parse(&argv(&line)).unwrap();
            for (j, paths) in args.paths.iter().enumerate() {
                let want = if i == j {
                    [Some("x.json".to_string()), Some("y.json".to_string())]
                } else {
                    [None, None]
                };
                assert_eq!(*paths, want, "{line}");
            }
        }
    }
}
