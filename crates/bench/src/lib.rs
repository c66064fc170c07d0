//! # bench — the figure/table regeneration harness
//!
//! One function per table/figure of the paper's evaluation section; the
//! `seal-bench` binary dispatches to them and writes CSV series next to
//! a human-readable summary. See `DESIGN.md` (experiment index) and
//! `EXPERIMENTS.md` (paper-vs-measured) at the workspace root.
//!
//! All results come from the *simulated* disk clock: runs are
//! deterministic, and "throughput" means operations per simulated
//! second, exactly the quantity the paper plots.

pub mod artifact;
pub mod chaos_run;
pub mod experiments;
pub mod metrics_run;
pub mod replicate_run;
pub mod scale;
pub mod scrub_run;
pub mod serve_run;
pub mod shard_run;
pub mod timing;
pub mod vlog_run;

pub use scale::BenchScale;

use lsm_core::Result;
use sealdb::{Store, StoreConfig, StoreKind};
use workloads::{MicroResult, RecordGenerator};

/// Builds a store of `kind` at the given scale.
pub fn build_store(kind: StoreKind, scale: &BenchScale) -> Result<Store> {
    let mut cfg = StoreConfig::new(kind, scale.sstable, scale.disk_capacity());
    cfg.seed = scale.seed;
    cfg.build()
}

/// Builds a store with an explicit disk-layout override (Fig. 2 runs
/// LevelDB on a conventional HDD).
pub fn build_store_with_layout(
    kind: StoreKind,
    scale: &BenchScale,
    layout: smr_sim::Layout,
) -> Result<Store> {
    let mut cfg = StoreConfig::new(kind, scale.sstable, scale.disk_capacity());
    cfg.seed = scale.seed;
    cfg.layout_override = Some(layout);
    cfg.build()
}

/// Random-loads a fresh store of `kind` with `scale.load_records()`
/// records; returns the store and the load result.
pub fn loaded_store(kind: StoreKind, scale: &BenchScale) -> Result<(Store, MicroResult)> {
    let mut store = build_store(kind, scale)?;
    let gen = scale.generator();
    let res = workloads::fill_random(&mut store, &gen, scale.load_records(), scale.seed)?;
    Ok((store, res))
}

/// Runs `f` once per store kind on its own OS thread (every store owns
/// an independent simulated disk, so the fan-out is embarrassingly
/// parallel) and returns results in input order.
pub fn per_store_parallel<T, F>(kinds: &[StoreKind], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(StoreKind) -> T + Sync,
{
    let mut out: Vec<Option<T>> = kinds.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for &kind in kinds {
            let f = &f;
            handles.push(s.spawn(move || f(kind)));
        }
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("store thread panicked"));
        }
    });
    out.into_iter().map(|o| o.expect("joined")).collect()
}

/// A generator matching the scale's record shape.
pub fn generator(scale: &BenchScale) -> RecordGenerator {
    scale.generator()
}

/// Formats nanoseconds as seconds with 3 decimals.
pub fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

/// Formats a byte count as mebibytes.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1u64 << 20) as f64)
}

/// Appends one problem per non-finite token found in an artifact — the
/// check every artifact checker runs. The writers clamp non-finite
/// values and format fixed precision, so any of these tokens means a
/// regression.
pub fn push_non_finite(content: &str, problems: &mut Vec<String>) {
    for bad in ["NaN", "nan\"", ":inf", ":-inf", "Infinity"] {
        if content.contains(bad) {
            problems.push(format!("artifact contains non-finite token {bad:?}"));
        }
    }
}

/// Appends one problem per key of `keys` that does not occur exactly
/// `expected` times in `content` (a per-cell key count).
pub(crate) fn push_key_counts(
    content: &str,
    keys: &[&str],
    expected: usize,
    problems: &mut Vec<String>,
) {
    for key in keys {
        let n = content.matches(key).count();
        if n != expected {
            problems.push(format!("key {key} appears {n} times, expected {expected}"));
        }
    }
}

/// The preamble every artifact checker shares: the `schema` marker,
/// every `header_keys` entry present, every `cell_keys` entry occurring
/// exactly `expected` times, and no non-finite token. Returns the
/// problems found; the caller appends its artifact's own bounds.
pub(crate) fn check_shape(
    content: &str,
    schema: &str,
    header_keys: &[&str],
    cell_keys: &[&str],
    expected: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    let marker = format!("\"schema\":\"{schema}\"");
    if !content.contains(&marker) {
        problems.push(format!("missing schema marker {marker}"));
    }
    for key in header_keys {
        if !content.contains(key) {
            problems.push(format!("missing key {key}"));
        }
    }
    push_key_counts(content, cell_keys, expected, &mut problems);
    push_non_finite(content, &mut problems);
    problems
}

/// The digits following the first `"key":` in `s`, as a `u64`.
pub(crate) fn u64_after(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &s[s.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every number following `"key":` in `s`, in order of appearance.
pub(crate) fn f64s_after(s: &str, key: &str) -> Vec<f64> {
    let pat = format!("\"{key}\":");
    s.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &s[i + pat.len()..];
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Renders each item with `f` and joins the results with commas — the
/// body of a JSON array or object.
pub(crate) fn join<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(",")
}

/// Test helper: rewrites the number after `"key":` to `value` in every
/// cell that opens with `open` and satisfies `pick` (which sees the
/// cell's text after `open`, once per cell, in document order).
#[cfg(test)]
pub(crate) fn set_in_cells(
    doc: &str,
    open: &str,
    mut pick: impl FnMut(&str) -> bool,
    key: &str,
    value: &str,
) -> String {
    let pat = format!("\"{key}\":");
    let mut parts = doc.split(open);
    let mut out = parts.next().unwrap_or_default().to_string();
    for cell in parts {
        out.push_str(open);
        match cell.find(&pat).filter(|_| pick(cell)) {
            Some(i) => {
                let start = i + pat.len();
                let end = start
                    + cell[start..]
                        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                        .unwrap_or(cell.len() - start);
                out.push_str(&cell[..start]);
                out.push_str(value);
                out.push_str(&cell[end..]);
            }
            None => out.push_str(cell),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_store_parallel_preserves_order() {
        let kinds = [StoreKind::LevelDb, StoreKind::SmrDb, StoreKind::SealDb];
        let names = per_store_parallel(&kinds, |k| k.name().to_string());
        assert_eq!(names, vec!["LevelDB", "SMRDB", "SEALDB"]);
    }

    #[test]
    fn build_all_kinds_at_tiny_scale() {
        let scale = BenchScale::tiny();
        for kind in StoreKind::ALL {
            let mut store = build_store(kind, &scale).unwrap();
            store.put(b"k", b"v").unwrap();
            assert_eq!(store.get(b"k").unwrap(), Some(b"v".to_vec()));
        }
    }

    #[test]
    fn non_finite_tokens_are_reported() {
        let mut problems = Vec::new();
        push_non_finite("{\"a\":1.5,\"b\":-2}", &mut problems);
        assert!(problems.is_empty());
        push_non_finite("{\"a\":NaN,\"b\":inf,\"c\":-inf}", &mut problems);
        assert_eq!(
            problems,
            [
                "artifact contains non-finite token \"NaN\"",
                "artifact contains non-finite token \":inf\"",
                "artifact contains non-finite token \":-inf\"",
            ]
        );
    }

    #[test]
    fn scanners_and_shape() {
        let doc = "{\"schema\":\"x-v1\",\"a\":12,\"c\":[{\"id\":1,\"b\":-1.5},{\"id\":2,\"b\":2}]}";
        assert_eq!(u64_after(doc, "a"), Some(12));
        assert_eq!(u64_after(doc, "b"), None);
        assert_eq!(f64s_after(doc, "b"), [-1.5, 2.0]);
        assert!(check_shape(doc, "x-v1", &["\"a\":"], &["\"b\":"], 2).is_empty());
        assert_eq!(
            check_shape(doc, "y-v1", &["\"z\":"], &["\"b\":"], 3),
            [
                "missing schema marker \"schema\":\"y-v1\"",
                "missing key \"z\":",
                "key \"b\": appears 2 times, expected 3",
            ]
        );
        let forged = set_in_cells(doc, "{\"id\":", |c| c.starts_with('2'), "b", "7");
        assert_eq!(f64s_after(&forged, "b"), [-1.5, 7.0]);
        assert_eq!(join([1, 2, 3], |i| i.to_string()), "1,2,3");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(1_500_000_000), "1.500");
        assert_eq!(mib(3 << 20), "3.00");
    }
}
