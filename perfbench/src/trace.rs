//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent span and request id.
//! Spans are only recorded while the tracer is on; they stay in memory
//! until the run ends, when [`Tracer::summary_json`] and
//! [`Tracer::spans_json`] write them out. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle of an open span; `None` while the tracer is off.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    /// A tracer that is off.
    fn default() -> Self {
        Tracer::new(false)
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        stats::median(&self.durations_us(name))
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.clamp(reach, s.end_ns), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: count, median duration, total and self time.
    pub fn summary_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&str, (Vec<f64>, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let entry = by_name.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            entry.0.push(dur as f64 / 1e3);
            entry.1 += dur;
            entry.2 += own;
        }
        let mut out = String::from("{");
        for (i, (name, (durs, total, own))) in by_name.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"count\": {}, \"p50_us\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                if i == 0 { "" } else { ", " },
                durs.len(),
                stats::median(durs),
                *total as f64 / 1e6,
                *own as f64 / 1e6,
            );
        }
        out.push('}');
        out
    }

    /// Every recorded span as `[name, start_ns, end_ns, parent, request]`.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}[\"{}\", {}, {}, {parent}, {}]",
                if i == 0 { "" } else { ", " },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push(']');
        out
    }
}
