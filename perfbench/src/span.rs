//! Spans and counts recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent span and the workload
//! operation it serves. Spans stay in memory and are written out once, when
//! the run ends. A layer's self time is its span's duration minus the time
//! its child spans cover. With tracing off, [`Tracer::span`] only calls its
//! closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `model.exion`.
    pub name: &'static str,
    /// Start (s).
    pub start: f64,
    /// End (s).
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The workload operation the span serves (a zoo model's index); `None`
    /// for spans covering many operations, such as a serving run.
    pub op: Option<u64>,
}

/// The span recorder of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Adds `n` to the count `name`, recorded at the boundary where the
    /// work was handed to a layer.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total self time (s) per span name: each span's duration minus the
    /// durations of its direct children. Spans are strictly nested on one
    /// thread, so the children never overlap.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - children;
        }
        out
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span and count to `path` as one JSON document
    /// (`{"spans":[{name,start_s,end_s,parent,op}...],"counts":{...}}`),
    /// creating the parent directory.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op)
            );
        }
        out.push_str("],\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("}}\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", None, |t| {
            spin(0.002);
            t.span("inner", Some(3), |_| spin(0.004));
        });
        let self_times = t.self_times();
        assert!(self_times["inner"] >= 0.004);
        assert!(self_times["outer"] >= 0.002 && self_times["outer"] < 0.004);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, Some(3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("outer", None, |t| {
            t.count("work", 5);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans.is_empty() && t.counts().is_empty());
    }
}
