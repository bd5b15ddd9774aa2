//! Outside-in tracing: spans recorded by the benchmark around each call
//! into a layer, kept in memory and written out once at the end.
//!
//! A span is `{name, start, end, parent, item}`; spans of one item
//! (one instance solve, one job) share the item id. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover. Nothing here is compiled into the solver: the
//! boundaries are the solver's public functions and plugin traits.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub item: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The in-memory span store. `enter`/`exit` keep a stack, so a span
/// opened while another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    item: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), item: 0 }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Item id stamped on the spans opened from now on.
    pub fn set_item(&mut self, item: u32) {
        self.item = item;
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        let now = self.ns(Instant::now());
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
        // Close any span left open below `id` too (a panic-free early
        // return in a caller must not corrupt the stack).
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top as usize].end_ns = now;
        }
    }

    /// Records a span timed elsewhere (another thread's stopwatch).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        item: u32,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, item });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per span name: duration minus the union of
    /// the direct children's intervals (clipped to the parent).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p as usize].push((a, b));
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
        }
        out
    }

    /// Seconds of total (inclusive) time and call count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += s.secs();
            e.1 += 1;
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        w.flush()
    }
}

/// The tracer as the plugin wrappers and worker threads share it.
pub type SharedTracer = Arc<Mutex<Tracer>>;

pub fn lock(t: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    t.lock().expect("a thread panicked while holding the tracer")
}

/// Runs `f` inside a span. The lock is held only to open and close the
/// span, never across `f`.
pub fn span<T>(t: &SharedTracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = lock(t).enter(name);
    let out = f();
    lock(t).exit(id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer { spans, ..Default::default() }
    }

    fn sp(name: &'static str, a: u64, b: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: a, end_ns: b, parent, item: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; children 10..30 and 20..50 overlap (union 40);
        // grandchild 12..18 belongs to the first child only.
        let t = tracer_with(vec![
            sp("root", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 20, 50, Some(0)),
            sp("c", 12, 18, Some(1)),
        ]);
        let st = t.self_times();
        assert!((st["root"] - 60e-9).abs() < 1e-15);
        assert!((st["a"] - 14e-9).abs() < 1e-15);
        assert!((st["b"] - 30e-9).abs() < 1e-15);
        assert!((st["c"] - 6e-9).abs() < 1e-15);
        // Self times partition the root: 60 + 14 + 30 + 6 = 110 counts
        // the overlap of a and b twice, which a single thread never has.
    }

    #[test]
    fn self_times_of_a_single_thread_sum_to_the_root() {
        let t = tracer_with(vec![
            sp("item", 0, 1000, None),
            sp("reduce", 0, 200, Some(0)),
            sp("solve", 250, 900, Some(0)),
            sp("separate", 300, 500, Some(2)),
            sp("separate", 600, 650, Some(2)),
        ]);
        let st = t.self_times();
        let sum: f64 = st.values().sum();
        assert!((sum - 1000e-9).abs() < 1e-15);
        assert!((st["separate"] - 250e-9).abs() < 1e-15);
        assert!((st["solve"] - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let t = tracer_with(vec![sp("p", 100, 200, None), sp("k", 50, 150, Some(0))]);
        assert!((t.self_times()["p"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn enter_exit_nest_and_stamp_items() {
        let shared: SharedTracer = Arc::default();
        lock(&shared).set_item(7);
        span(&shared, "outer", || span(&shared, "inner", || ()));
        let t = lock(&shared);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans().iter().all(|s| s.item == 7));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.totals()["inner"].1, 1);
    }
}
