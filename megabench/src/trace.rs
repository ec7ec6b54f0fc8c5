//! Benchmark-side spans around each call into a layer of the program.
//!
//! Spans live in memory (name, start, end, parent, request id) and are
//! written once, as a Chrome trace, when the run ends. A layer's self
//! time is its span minus the union of its children's intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per span name: how many, total time and self time, in seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SelfTime {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (for children).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span list is never poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span list is never poisoned")[id.0].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list is never poisoned")
            .len()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span list is never poisoned");
        let selfs = self_ns(&spans);
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += (s.end_ns - s.start_ns) as f64 / 1e9;
            e.self_s += self_ns as f64 / 1e9;
        }
        out
    }

    /// Chrome trace JSON: one `X` event per span, the request id as the
    /// thread lane, parent and self time in `args`.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span list is never poisoned");
        let selfs = self_ns(&spans);
        let mut out = String::from("{\"traceEvents\": [\n");
        for (k, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "null".to_string()
            } else {
                s.parent.0.to_string()
            };
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {k}, \"parent\": {parent}, \"request\": {}, \"self_us\": {:.3}}}}}",
                if k == 0 { "" } else { ",\n" },
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
                self_ns as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: duration minus the union of its children.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            children[s.parent.0].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let tr = Tracer::new(true, t0);
        let root = tr.record("root", SpanId::NONE, 1, at(0), at(100));
        // Two overlapping children cover 10..50; one more covers 60..70.
        tr.record("a", root, 1, at(10), at(40));
        tr.record("a", root, 1, at(30), at(50));
        tr.record("b", root, 1, at(60), at(70));
        let st = tr.self_times();
        assert_eq!(st["root"].count, 1);
        assert!((st["root"].self_s - 0.050).abs() < 1e-9);
        assert!((st["a"].total_s - 0.050).abs() < 1e-9);
        assert!((st["b"].self_s - 0.010).abs() < 1e-9);
        assert!(tr.chrome_json().contains("\"parent\": 0"));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let tr = Tracer::new(false, Instant::now());
        let id = tr.open("x", SpanId::NONE, 0);
        tr.close(id);
        assert_eq!(id, SpanId::NONE);
        assert_eq!(tr.len(), 0);
    }
}
