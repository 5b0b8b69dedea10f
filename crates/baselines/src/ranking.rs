//! Ranked answer lists and the algorithm trait.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use repsim_graph::{Graph, LabelId, NodeId};

/// A kept top-k candidate, ordered so a max-heap's root is the *worst*
/// kept answer: lower score is greater (worse); on score ties, the larger
/// `(label, value)` key is greater (worse). Scores are pre-filtered
/// finite, and the comparison mirrors the full sort's `partial_cmp`
/// exactly (`-0.0 == 0.0`), so both paths break ties identically.
struct HeapEntry<'g> {
    score: f64,
    key: (&'g str, &'g str),
    node: NodeId,
}

impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Scores are finite by construction; a NaN would tie, not panic.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry<'_> {}

/// A ranked similarity answer list: `(entity, score)` pairs in
/// descending-score order, score ties broken ascending by the entity's
/// representation-independent `(label, value)` sort key.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedList {
    entries: Vec<(NodeId, f64)>,
}

impl RankedList {
    /// Ranks `scores` over `candidates`, excluding the query node itself
    /// (queries ask for entities *other than* the query, §2.2), keeping the
    /// top `k` (all, if `k == usize::MAX`).
    ///
    /// Candidates with non-finite scores are dropped (an algorithm that
    /// diverges must not silently rank garbage).
    pub fn from_scores(
        g: &Graph,
        candidates: impl IntoIterator<Item = (NodeId, f64)>,
        query: NodeId,
        k: usize,
    ) -> RankedList {
        let mut entries: Vec<(NodeId, f64)> = candidates
            .into_iter()
            .filter(|&(n, s)| n != query && s.is_finite())
            .collect();
        if k == 0 {
            return RankedList {
                entries: Vec::new(),
            };
        }
        // When k is small relative to the candidate count, a bounded heap
        // keeps only k entries and looks up the (label, value) sort key
        // per kept or score-tied candidate. Keys are borrowed from the
        // graph, never allocated. The two paths order identically (the
        // unit tests pin equality), so the cutover is purely a cost choice.
        if k.saturating_mul(4) <= entries.len() {
            return RankedList {
                entries: Self::top_k_by_heap(g, entries, k),
            };
        }
        entries.sort_by(|&(a, sa), &(b, sb)| {
            // Scores are finite by construction; a NaN would tie, not panic.
            sb.partial_cmp(&sa)
                .unwrap_or(Ordering::Equal)
                .then_with(|| g.sort_key_ref(a).cmp(&g.sort_key_ref(b)))
        });
        entries.truncate(k);
        RankedList { entries }
    }

    /// Exact top-k selection over `candidates` with a size-k max-heap whose
    /// root is the worst kept answer (see [`HeapEntry`]).
    fn top_k_by_heap(g: &Graph, candidates: Vec<(NodeId, f64)>, k: usize) -> Vec<(NodeId, f64)> {
        debug_assert!(k > 0);
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        for (node, score) in candidates {
            if heap.len() < k {
                heap.push(HeapEntry {
                    score,
                    key: g.sort_key_ref(node),
                    node,
                });
                continue;
            }
            let Some(worst) = heap.peek() else {
                continue; // unreachable: heap.len() >= k > 0 here
            };
            // Reject on score alone before paying for the sort key.
            if score < worst.score {
                continue;
            }
            if score == worst.score && g.sort_key_ref(node) >= worst.key {
                continue;
            }
            heap.pop();
            heap.push(HeapEntry {
                score,
                key: g.sort_key_ref(node),
                node,
            });
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|e| (e.node, e.score))
            .collect()
    }

    /// The `(entity, score)` entries, best first.
    pub fn entries(&self) -> &[(NodeId, f64)] {
        &self.entries
    }

    /// Just the entities, best first.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.entries.iter().map(|&(n, _)| n).collect()
    }

    /// The `(label, value, score)` view — the representation-independent
    /// form used to compare rankings across databases.
    pub fn keyed(&self, g: &Graph) -> Vec<(String, String, f64)> {
        self.entries
            .iter()
            .map(|&(n, s)| {
                let (l, v) = g.sort_key(n);
                (l, v, s)
            })
            .collect()
    }

    /// Number of answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keeps only the first `k` answers.
    pub fn truncated(&self, k: usize) -> RankedList {
        RankedList {
            entries: self.entries.iter().take(k).copied().collect(),
        }
    }
}

/// A similarity search algorithm bound to one database.
///
/// Implementations may cache per-graph state (SimRank's score matrix,
/// PathSim's commuting matrices) across queries; `rank` therefore takes
/// `&mut self`.
pub trait SimilarityAlgorithm {
    /// Short algorithm name for reports.
    fn name(&self) -> String;

    /// Ranks entities of `target_label` by similarity to `query`,
    /// returning the top `k`.
    fn rank(&mut self, query: NodeId, target_label: LabelId, k: usize) -> RankedList;
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::GraphBuilder;

    #[test]
    fn ranking_sorts_excludes_and_truncates() {
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let q = b.entity(film, "q");
        let x = b.entity(film, "x");
        let y = b.entity(film, "y");
        let z = b.entity(film, "z");
        let g = b.build();
        let list = RankedList::from_scores(&g, vec![(q, 9.0), (x, 1.0), (y, 3.0), (z, 2.0)], q, 2);
        assert_eq!(list.nodes(), vec![y, z]);
        assert_eq!(list.len(), 2);
        assert_eq!(list.truncated(1).nodes(), vec![y]);
    }

    #[test]
    fn ties_break_by_value_not_node_id() {
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let q = b.entity(film, "q");
        // Insertion order deliberately reversed relative to value order.
        let zeta = b.entity(film, "zeta");
        let alpha = b.entity(film, "alpha");
        let g = b.build();
        let list = RankedList::from_scores(&g, vec![(zeta, 1.0), (alpha, 1.0)], q, 10);
        assert_eq!(list.nodes(), vec![alpha, zeta]);
    }

    #[test]
    fn non_finite_scores_dropped() {
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let q = b.entity(film, "q");
        let x = b.entity(film, "x");
        let y = b.entity(film, "y");
        let g = b.build();
        let list = RankedList::from_scores(&g, vec![(x, f64::NAN), (y, 0.5)], q, 10);
        assert_eq!(list.nodes(), vec![y]);
    }

    #[test]
    fn heap_top_k_equals_full_sort() {
        // Many candidates, few distinct scores (forcing tie-breaks), small
        // k: exercises the bounded-heap path against the full-sort path
        // (k = usize::MAX keeps every candidate and always full-sorts).
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let q = b.entity(film, "query");
        let nodes: Vec<_> = (0..97)
            .map(|i| b.entity(film, &format!("f{:02}", (i * 41) % 97)))
            .collect();
        let g = b.build();
        let scores: Vec<(NodeId, f64)> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, ((i * 7) % 5) as f64))
            .collect();
        let full = RankedList::from_scores(&g, scores.clone(), q, usize::MAX);
        for k in [1, 2, 5, 10, 24] {
            let heap = RankedList::from_scores(&g, scores.clone(), q, k);
            assert_eq!(heap, full.truncated(k), "k={k}");
        }
    }

    #[test]
    fn zero_k_is_empty() {
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let q = b.entity(film, "q");
        let x = b.entity(film, "x");
        let g = b.build();
        assert!(RankedList::from_scores(&g, vec![(x, 1.0)], q, 0).is_empty());
    }

    #[test]
    fn keyed_view_is_value_based() {
        let mut b = GraphBuilder::new();
        let film = b.entity_label("film");
        let q = b.entity(film, "q");
        let x = b.entity(film, "x");
        let g = b.build();
        let list = RankedList::from_scores(&g, vec![(x, 2.0)], q, 10);
        assert_eq!(list.keyed(&g), vec![("film".into(), "x".into(), 2.0)]);
    }
}
