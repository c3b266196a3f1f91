//! In-memory spans for the traced run, recorded by the benchmark around
//! its calls into each crate's public functions.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// The request this call served.
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// Per-layer totals: how many calls, their self time, and their summed
/// durations (busy time: calls that ran in parallel each count).
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub calls: usize,
    pub self_ms: f64,
    pub busy_ms: f64,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a call that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that [`Recorder::close`] ends; for parents whose
    /// children are recorded in between.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end = end;
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, request, start, Instant::now());
        (out, id)
    }

    /// Each span's self time in nanoseconds: its duration minus the part
    /// of its interval that its children cover. Children that ran in
    /// parallel are counted once, by the union of their intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                let covered = union_within(&mut kids, span.start, span.end);
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Calls and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let layer = out.entry(span.name).or_default();
            layer.calls += 1;
            layer.self_ms += self_ns as f64 / 1e6;
            layer.busy_ms += span.ms();
        }
        out
    }

    /// Durations in milliseconds of the spans named `name` whose request
    /// satisfies `keep`.
    pub fn durations_ms(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.request))
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id  parent  request  name  start_ns  end_ns  self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.request, span.name, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once_and_clips() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (45, 48)];
        assert_eq!(union_within(&mut iv, 0, 100), 30);
        let mut iv = vec![(0, 20), (90, 120)];
        assert_eq!(union_within(&mut iv, 10, 100), 20);
        assert_eq!(union_within(&mut [], 0, 100), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new();
        let t0 = rec.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = rec.record("root", None, 7, at(0), at(100));
        rec.record("a", Some(root), 7, at(10), at(40));
        rec.record("b", Some(root), 7, at(30), at(60));
        let self_ns = rec.self_ns();
        assert_eq!(self_ns[root], 50_000_000);
        assert_eq!(self_ns[1], 30_000_000);
        let layers = rec.layers();
        assert_eq!(layers["root"].calls, 1);
        assert!((layers["root"].self_ms - 50.0).abs() < 1e-9);
        assert_eq!(rec.durations_ms("a", |r| r == 7), vec![30.0]);
        assert!(rec.durations_ms("a", |r| r == 8).is_empty());
    }

    #[test]
    fn process_cpu_advances() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > before);
    }
}
