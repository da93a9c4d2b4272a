//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span is recorded around a call into one layer's public API. Spans
//! of one request share an `id`; `parent` names the span that caused
//! it (empty for a root). Times are nanoseconds since the run's clock
//! started. A disabled recorder costs one branch per call site.

use std::io::Write;
use std::time::Duration;

use mpil_harness::WallClock;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request (or stage) identifier shared by related spans.
    pub id: u64,
    /// Layer boundary, e.g. `ctrl.encode`.
    pub name: &'static str,
    /// The causing span's name within the same `id` ("" for a root).
    pub parent: &'static str,
    /// Start, ns since the run's clock started.
    pub start_ns: u64,
    /// End, ns since the run's clock started.
    pub end_ns: u64,
}

/// A span buffer; one per recording thread, merged at the end.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` as `name` under `parent` for request `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        start: Duration,
        end: Duration,
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                name,
                parent,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        }
    }

    /// Moves every span of `other` into `self`.
    pub fn absorb(&mut self, mut other: Spans) {
        self.spans.append(&mut other.spans);
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Any file-system error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds one span costs where it is recorded: two clock reads and
/// a push, measured on a scratch buffer.
pub fn cost_ns() -> f64 {
    const N: u32 = 200_000;
    let clock = WallClock::start();
    let mut scratch = Spans::new(true);
    for i in 0..N {
        let t0 = clock.elapsed();
        let t1 = clock.elapsed();
        scratch.record(u64::from(i), "probe", "", t0, t1);
    }
    std::hint::black_box(scratch.len());
    clock.elapsed().as_nanos() as f64 / f64::from(N)
}
