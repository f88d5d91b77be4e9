//! Spans recorded by the traced run around each call into a layer.
//! Spans are held in memory and written out as JSON lines at the end,
//! so recording costs two clock reads and a push.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name aggregate over a trace.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub count: usize,
    /// Median self time of one span, in microseconds.
    pub p50_self_us: f64,
    /// Self time summed over every span of the name, as a share of the
    /// summed duration of the root (op) spans.
    pub share: f64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one), renaming
    /// it: some spans are classified only by what the call did.
    pub fn end_as(&mut self, id: usize, name: &'static str) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].name = name;
    }

    pub fn end(&mut self, id: usize) {
        let name = self.spans[id].name;
        self.end_as(id, name);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Summed duration of the root spans, in seconds.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Count, median self time and self-time share for every span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut selfs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(*children);
            selfs.entry(span.name).or_default().push(own as f64 * 1e-3);
        }
        let root_us = self.root_secs() * 1e6;
        selfs
            .into_iter()
            .map(|(name, mut us)| {
                us.sort_by(f64::total_cmp);
                let layer = LayerTime {
                    count: us.len(),
                    p50_self_us: percentile(&us, 50.0),
                    share: us.iter().sum::<f64>() / root_us,
                };
                (name, layer)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("op", 0);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.end(root);
        let layers = t.layers();
        assert_eq!(layers["op"].count, 1);
        assert!(layers["child"].p50_self_us >= 4000.0);
        assert!(layers["op"].p50_self_us < layers["child"].p50_self_us);
        let shares = layers["op"].share + layers["child"].share;
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
    }
}
