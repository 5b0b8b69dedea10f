//! The per-layer self-time ledger, built from the spans the program
//! already emits.
//!
//! [`SpanSink`] is a `repsim-obs` sink the benchmark installs around its
//! traced phase; it keeps every closed span in memory. [`Ledger`] turns
//! those spans into self times. A span's self time is the part of its
//! interval during which it is the innermost active span of its tree:
//! time covered by a child (on any thread) belongs to the child, and an
//! instant where several leaves of one tree run at once (a coordinator's
//! shards answering in parallel) is split evenly among them. The self
//! times of a tree therefore sum to its root's duration, and whatever an
//! end-to-end time holds beyond its roots is unattributed.
//!
//! Spans nest by the parent id `repsim-obs` records on one thread. A
//! span opened on a thread with no open span (a shard's request, run on
//! the shard's worker thread) is *adopted* by the innermost span of a
//! named adopter kind on another thread whose interval contains it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use repsim_obs::{AttrValue, EventKind, Sink, TraceEvent};

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// A numeric attribute (`u64` or `f64`), if present.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                AttrValue::U64(n) => Some(*n as f64),
                AttrValue::F64(x) => Some(*x),
                _ => None,
            })
    }

    /// A string attribute, if present.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                AttrValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
    }
}

/// Collects every span that closes while it is installed.
#[derive(Default)]
pub struct SpanSink {
    spans: Mutex<Vec<SpanRec>>,
}

impl Sink for SpanSink {
    fn record(&self, ev: &TraceEvent) {
        if let EventKind::SpanEnd {
            id,
            parent,
            name,
            dur_ns,
            attrs,
        } = &ev.kind
        {
            let rec = SpanRec {
                id: *id,
                parent: *parent,
                name,
                thread: ev.thread,
                start_ns: ev.t_ns.saturating_sub(*dur_ns),
                end_ns: ev.t_ns,
                attrs: attrs.clone(),
            };
            self.spans.lock().expect("span sink poisoned").push(rec);
        }
    }
}

/// Runs `f` with a [`SpanSink`] installed and returns its result with
/// the spans that closed meanwhile.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRec>) {
    let sink = Arc::new(SpanSink::default());
    let installed: Arc<dyn Sink> = sink.clone();
    repsim_obs::install(Arc::clone(&installed));
    let out = f();
    repsim_obs::remove_sink(&installed);
    let spans = std::mem::take(&mut *sink.spans.lock().expect("span sink poisoned"));
    (out, spans)
}

/// Span self times, per span and per name.
pub struct Ledger {
    spans: Vec<SpanRec>,
    parent: Vec<Option<usize>>,
    self_ns: Vec<f64>,
}

/// Totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub dur_ns: f64,
    pub self_ns: f64,
}

impl Ledger {
    /// Builds the ledger. `adopt` lists `(child, adopter)` name pairs: a
    /// root span named `child` joins the tree of the latest-starting
    /// `adopter` span on another thread that contains its interval.
    pub fn new(mut spans: Vec<SpanRec>, adopt: &[(&str, &str)]) -> Ledger {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut parent: Vec<Option<usize>> = spans
            .iter()
            .map(|s| s.parent.and_then(|p| index.get(&p).copied()))
            .collect();
        for &(child, adopter) in adopt {
            let adopters: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].name == adopter)
                .collect();
            for i in 0..spans.len() {
                let s = &spans[i];
                if s.name != child || s.parent.is_some() {
                    continue;
                }
                // `adopters` is in start order: scan back from the last
                // one that started no later than `s`.
                let upto = adopters.partition_point(|&a| spans[a].start_ns <= s.start_ns);
                parent[i] = adopters[..upto].iter().rev().copied().find(|&a| {
                    let p = &spans[a];
                    p.thread != s.thread && p.end_ns >= s.end_ns
                });
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        let mut self_ns = vec![0.0; spans.len()];
        for root in (0..spans.len()).filter(|&i| parent[i].is_none()) {
            let mut tree = vec![root];
            let mut k = 0;
            while k < tree.len() {
                tree.extend_from_slice(&children[tree[k]]);
                k += 1;
            }
            split_self_time(&spans, &children, &tree, &mut self_ns);
        }
        Ledger {
            spans,
            parent,
            self_ns,
        }
    }

    /// Spans named `name`, with their self times.
    pub fn named<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (usize, &'a SpanRec, f64)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(i, s)| (i, s, self.self_ns[i]))
    }

    pub fn totals(&self, name: &str) -> NameTotals {
        self.named(name)
            .fold(NameTotals::default(), |t, (_, s, own)| NameTotals {
                count: t.count + 1,
                dur_ns: t.dur_ns + s.dur_ns() as f64,
                self_ns: t.self_ns + own,
            })
    }

    /// Whether span `i` has an ancestor named `name`.
    pub fn under(&self, i: usize, name: &str) -> bool {
        let mut at = self.parent[i];
        while let Some(p) = at {
            if self.spans[p].name == name {
                return true;
            }
            at = self.parent[p];
        }
        false
    }

    /// Sum of every span's self time (equal to the roots' durations).
    pub fn self_sum_ns(&self) -> f64 {
        self.self_ns.iter().sum()
    }
}

/// Distributes the time of one tree among its innermost active spans.
fn split_self_time(
    spans: &[SpanRec],
    children: &[Vec<usize>],
    tree: &[usize],
    self_ns: &mut [f64],
) {
    let mut cuts: Vec<u64> = tree
        .iter()
        .flat_map(|&i| [spans[i].start_ns, spans[i].end_ns])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let covers = |i: usize| spans[i].start_ns <= lo && spans[i].end_ns >= hi;
        let leaves: Vec<usize> = tree
            .iter()
            .copied()
            .filter(|&i| covers(i) && !children[i].iter().any(|&c| covers(c)))
            .collect();
        let share = (hi - lo) as f64 / leaves.len().max(1) as f64;
        for i in leaves {
            self_ns[i] += share;
        }
    }
}

/// The share of an end-to-end time that no span accounts for.
pub fn unattributed_frac(end_to_end_ns: f64, self_sum_ns: f64) -> f64 {
    if end_to_end_ns <= 0.0 {
        return 0.0;
    }
    (end_to_end_ns - self_sum_ns) / end_to_end_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        thread: u64,
        s: u64,
        e: u64,
    ) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            thread,
            start_ns: s,
            end_ns: e,
            attrs: Vec::new(),
        }
    }

    fn self_of(l: &Ledger, id: u64) -> f64 {
        l.spans
            .iter()
            .position(|s| s.id == id)
            .map(|i| l.self_ns[i])
            .unwrap()
    }

    #[test]
    fn nested_spans_on_one_thread_subtract_their_children() {
        let l = Ledger::new(
            vec![
                span(1, None, "root", 0, 0, 100),
                span(2, Some(1), "a", 0, 10, 40),
                span(3, Some(2), "a.inner", 0, 20, 30),
                span(4, Some(1), "b", 0, 50, 60),
            ],
            &[],
        );
        assert_eq!(self_of(&l, 1), 60.0);
        assert_eq!(self_of(&l, 2), 20.0);
        assert_eq!(self_of(&l, 3), 10.0);
        assert_eq!(self_of(&l, 4), 10.0);
        assert_eq!(l.self_sum_ns(), 100.0);
        assert!(l.under(2, "root") && !l.under(0, "root"));
    }

    #[test]
    fn cross_thread_children_are_adopted_and_parallel_time_is_split() {
        // A coordinator request on thread 0 fans out to two shard
        // requests on threads 1 and 2 that overlap during [20, 50]; the
        // first shard's request has its own child on thread 1.
        let l = Ledger::new(
            vec![
                span(1, None, "coord", 0, 0, 100),
                span(2, None, "req", 1, 10, 50),
                span(3, Some(2), "rank", 1, 30, 40),
                span(4, None, "req", 2, 20, 60),
                // Same name, but not contained in any coord span: a root.
                span(5, None, "req", 1, 90, 120),
            ],
            &[("req", "coord")],
        );
        // Coord owns [0,10] and [60,100].
        assert_eq!(self_of(&l, 1), 50.0);
        // Shard 1: [10,20] alone, [20,30] and [40,50] shared, rank holds [30,40].
        assert_eq!(self_of(&l, 2), 10.0 + 5.0 + 5.0);
        assert_eq!(self_of(&l, 3), 5.0);
        // Shard 2: [20,30] and [40,50] shared with shard 1, [30,40] shared
        // with the rank, [50,60] alone.
        assert_eq!(self_of(&l, 4), 5.0 + 5.0 + 5.0 + 10.0);
        assert_eq!(self_of(&l, 5), 30.0);
        assert_eq!(l.self_sum_ns(), 100.0 + 30.0);
        assert_eq!(l.totals("req").count, 3);
    }

    #[test]
    fn adoption_prefers_the_innermost_containing_span() {
        // Two overlapping coordinator requests on different threads; the
        // shard request lies inside both and joins the later one.
        let l = Ledger::new(
            vec![
                span(1, None, "coord", 0, 0, 100),
                span(2, None, "coord", 3, 20, 90),
                span(3, None, "req", 1, 30, 40),
            ],
            &[("req", "coord")],
        );
        assert_eq!(self_of(&l, 1), 100.0);
        assert_eq!(self_of(&l, 2), 60.0);
        assert!(l.under(2, "coord"));
    }

    #[test]
    fn unattributed_is_the_end_to_end_share_no_span_covers() {
        assert_eq!(unattributed_frac(200.0, 150.0), 0.25);
        assert_eq!(unattributed_frac(200.0, 200.0), 0.0);
        // Spans can exceed a client's view when clocks straddle it.
        assert_eq!(unattributed_frac(100.0, 110.0), -0.1);
        assert_eq!(unattributed_frac(0.0, 5.0), 0.0);
    }
}
