//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public API; nothing inside the program is
//! instrumented. A span carries its name, the operation it belongs to,
//! its parent (the span that was open when it started) and its start and
//! end on both clocks: host time since the tracer was created and the
//! store's simulated clock. Spans stay in memory until the run ends and
//! are then written out as one tab-separated file.

use crate::host::Stopwatch;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
struct Span {
    /// Layer-qualified name, e.g. `sealdb.put`.
    name: &'static str,
    /// Operation id shared by every span of one benchmark operation.
    op: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    parent: u32,
    /// Host start, ns since the tracer's origin.
    host_start: u64,
    /// Host end, ns since the tracer's origin.
    host_end: u64,
    /// Simulated clock at the start, ns.
    sim_start: u64,
    /// Simulated clock at the end, ns.
    sim_end: u64,
    /// Free-form class set at exit (e.g. which work a put triggered).
    tag: &'static str,
}

impl Span {
    /// Host duration, ns.
    fn host_ns(&self) -> u64 {
        self.host_end - self.host_start
    }
}

/// Span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty tracer whose host clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.ns()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64, sim_now: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let host_start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            host_start,
            host_end: host_start,
            sim_start: sim_now,
            sim_end: sim_now,
            tag: "",
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32, sim_now: u64, tag: &'static str) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let host_end = self.now();
        let s = &mut self.spans[id as usize];
        s.host_end = host_end;
        s.sim_end = sim_now;
        s.tag = tag;
    }

    /// Drops every recorded span (keeps the origin).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// Host durations (ns) of every span named `name` (and tagged `tag`,
    /// when given).
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::host_ns)
            .collect()
    }

    /// Total host self time per span name, ns: each span's duration minus
    /// the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.host_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.host_ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as tab-separated values under a header of
    /// `# `-prefixed comment lines.
    pub fn write_tsv(&self, path: &Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(
            out,
            "id\tname\top\tparent\thost_start_ns\thost_end_ns\tsim_start_ns\tsim_end_ns\ttag"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.op, s.host_start, s.host_end, s.sim_start, s.sim_end, s.tag
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.enter("op", 1, 0);
        let a = t.enter("a", 1, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a, 5, "");
        t.exit(root, 5, "");
        let spans = &t.spans;
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        let self_ns = t.self_times();
        assert_eq!(self_ns["op"], spans[0].host_ns() - spans[1].host_ns());
        assert_eq!(self_ns["a"], spans[1].host_ns());
        assert_eq!(t.durations("a", Some("")).len(), 1);
        assert!(t.durations("a", Some("x")).is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_exit_panics() {
        let mut t = Tracer::new();
        let a = t.enter("a", 0, 0);
        let _b = t.enter("b", 0, 0);
        t.exit(a, 0, "");
    }
}
