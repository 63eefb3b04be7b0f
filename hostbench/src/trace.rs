//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer of the workspace (never inside the program). Each span has a
//! name, start and end, the span open on the same thread when it began
//! (its parent), the unit it belongs to (a simulation point, a trace or
//! a scripted request) and the round it ran in. Spans stay in memory
//! and are written out once, at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u32,
    /// Enclosing span on the same thread, 0 for none.
    pub parent: u32,
    /// Layer boundary, e.g. `apps.run`.
    pub name: &'static str,
    /// Simulation point, trace or request index the span belongs to.
    pub unit: u32,
    /// Measurement round.
    pub round: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder. Disabled, [`Tracer::span`] is a plain call.
pub struct Tracer {
    on: AtomicBool,
    round: AtomicU32,
    next_id: AtomicU32,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder, initially recording iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            round: AtomicU32::new(0),
            next_id: AtomicU32::new(1),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off; the traced run alternates rounds so it
    /// can measure its own overhead.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Stamps later spans with `round`.
    pub fn set_round(&self, round: u32) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// Runs `f`, recording it as span `name` of `unit` when enabled.
    pub fn span<T>(&self, name: &'static str, unit: u32, f: impl FnOnce() -> T) -> T {
        if !self.is_on() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            unit,
            round: self.round.load(Ordering::Relaxed),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus its children's. Children
/// nest inside their parent on one thread, so their durations never
/// overlap and the subtraction is exact.
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Per-layer time under the benchmark's estimator: for every unit, the
/// fastest round's self time of span `name`; summed over units. In
/// nanoseconds; 0 when no such span was recorded.
pub fn best_sum_ns(spans: &[Span], name: &str) -> u64 {
    let mut best: BTreeMap<u32, u64> = BTreeMap::new();
    for (s, own) in self_times(spans) {
        if s.name == name {
            let b = best.entry(s.unit).or_insert(u64::MAX);
            *b = (*b).min(own);
        }
    }
    best.values().sum()
}

/// [`best_sum_ns`] over whole durations, children included.
pub fn best_total_ns(spans: &[Span], name: &str) -> u64 {
    let mut best: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let b = best.entry(s.unit).or_insert(u64::MAX);
        *b = (*b).min(s.dur_ns());
    }
    best.values().sum()
}

/// Self times of every span named `name`, in nanoseconds.
pub fn self_ns(spans: &[Span], name: &str) -> Vec<u64> {
    self_times(spans)
        .into_iter()
        .filter(|(s, _)| s.name == name)
        .map(|(_, own)| own)
        .collect()
}

/// Writes the spans as JSON lines to `path`, creating its directory.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"unit\": {}, \"round\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.unit, s.round, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_best_sum_takes_fastest_round() {
        let t = Tracer::new(true);
        for round in 0..2 {
            t.set_round(round);
            t.span("outer", 7, || {
                t.span("inner", 7, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.id == inner.parent).unwrap();
        assert_eq!(outer.name, "outer");
        let own = self_ns(&spans, "outer");
        assert!(own.iter().all(|&ns| ns < 2_000_000), "{own:?}");
        let best = best_sum_ns(&spans, "inner");
        assert!(best >= 2_000_000 && best <= self_ns(&spans, "inner").into_iter().max().unwrap());
        t.set_on(false);
        t.span("ignored", 0, || ());
        assert_eq!(t.spans().len(), 4);
    }
}
