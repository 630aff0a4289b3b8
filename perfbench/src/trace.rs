//! Benchmark-side tracing: spans recorded around calls into each
//! layer's public API, plus counts taken at the same boundaries.
//!
//! Nothing inside the program is instrumented. A disabled tracer costs
//! one branch per call site, so the untraced code path and the traced
//! one are the same code.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Window (PIC iteration) or query id the call worked on.
    pub key: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// In-memory span store, shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

/// Parent id of a root span.
pub const ROOT: u32 = 0;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Reserve a span id, so children can name their parent before the
    /// parent span has ended.
    pub fn open(&self) -> (u32, Instant) {
        if !self.enabled {
            return (ROOT, self.epoch);
        }
        (self.next_id.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    /// Record a span opened with [`Tracer::open`].
    pub fn close(&self, opened: (u32, Instant), parent: u32, name: &'static str, key: u64) {
        if !self.enabled {
            return;
        }
        let (id, start) = opened;
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(Span {
                id,
                parent,
                name,
                key,
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    /// Time `f` as one span.
    pub fn span<T>(&self, parent: u32, name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
        let opened = self.open();
        let out = f();
        self.close(opened, parent, name, key);
        out
    }

    /// Add `v` to the counter `name` (taken at the same call boundary as
    /// a span, e.g. seconds a publish spent blocked on a full queue).
    pub fn add(&self, name: &'static str, v: f64) {
        if self.enabled {
            *self
                .counters
                .lock()
                .expect("a tracing thread panicked")
                .entry(name)
                .or_insert(0.0) += v;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let counters = self.counters.lock().expect("a tracing thread panicked");
        counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }
}

/// Per-name span statistics of a finished run.
pub struct SpanSummary {
    spans: Vec<Span>,
}

impl SpanSummary {
    pub fn new(spans: Vec<Span>) -> Self {
        Self { spans }
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Mean duration per span of `name`, in ms (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_ms(name) / n as f64
        }
    }

    /// Mean self time of `name` in ms: its duration minus the part its
    /// direct children cover.
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            return 0.0;
        }
        let ids: std::collections::BTreeSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.id)
            .collect();
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| ids.contains(&s.parent))
            .map(Span::ms)
            .sum();
        (self.total_ms(name) - children) / n as f64
    }

    /// Tab-separated dump, one span per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tkey\tstart_ns\tend_ns\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\n",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
