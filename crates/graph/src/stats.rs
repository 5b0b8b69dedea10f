//! Descriptive statistics of a graph database.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::label::LabelId;

/// Per-label and global size statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total node count.
    pub num_nodes: usize,
    /// Total undirected edge count.
    pub num_edges: usize,
    /// Entity node count.
    pub num_entities: usize,
    /// `(label, node count)` per label, in label-id order.
    pub per_label: Vec<(LabelId, usize)>,
    /// Maximum degree over all nodes.
    pub max_degree: usize,
    /// Mean degree over all nodes.
    pub mean_degree: f64,
}

impl GraphStats {
    /// Computes statistics for a graph.
    pub fn of(g: &Graph) -> Self {
        let per_label = g
            .labels()
            .ids()
            .map(|l| (l, g.nodes_of_label(l).len()))
            .collect();
        let max_degree = g.node_ids().map(|n| g.degree(n)).max().unwrap_or(0);
        let mean_degree = if g.num_nodes() == 0 {
            0.0
        } else {
            2.0 * g.num_edges() as f64 / g.num_nodes() as f64
        };
        GraphStats {
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            num_entities: g.num_entities(),
            per_label,
            max_degree,
            mean_degree,
        }
    }

    /// Renders a short human-readable summary.
    pub fn summary(&self, g: &Graph) -> String {
        let mut s = format!(
            "{} nodes ({} entities), {} edges, max degree {}, mean degree {:.2}\n",
            self.num_nodes, self.num_entities, self.num_edges, self.max_degree, self.mean_degree
        );
        for &(l, count) in &self.per_label {
            s.push_str(&format!("  {}: {}\n", g.labels().name(l), count));
        }
        s
    }
}

/// Degree histogram: `histogram[d]` = number of nodes with degree `d`
/// (trailing zeros trimmed).
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = Vec::new();
    for n in g.node_ids() {
        let d = g.degree(n);
        if hist.len() <= d {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Edge counts per unordered label pair, sorted by label names — a quick
/// schema-level view of where a database's edges live.
pub fn label_pair_edge_counts(g: &Graph) -> Vec<((String, String), usize)> {
    let mut counts: std::collections::BTreeMap<(String, String), usize> =
        std::collections::BTreeMap::new();
    for (a, b) in g.edges() {
        let mut pair = (
            g.labels().name(g.label_of(a)).to_owned(),
            g.labels().name(g.label_of(b)).to_owned(),
        );
        if pair.0 > pair.1 {
            std::mem::swap(&mut pair.0, &mut pair.1);
        }
        *counts.entry(pair).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Entities of `label` sorted by descending degree (ties broken by the
/// representation-independent sort key). This is the paper's "top queries"
/// workload source (§6.1.1).
pub fn entities_by_degree(g: &Graph, label: LabelId) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = g.nodes_of_label(label).to_vec();
    nodes.sort_by(|&a, &b| {
        g.degree(b)
            .cmp(&g.degree(a))
            .then_with(|| g.sort_key_ref(a).cmp(&g.sort_key_ref(b)))
    });
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_of_small_graph() {
        let mut b = GraphBuilder::new();
        let actor = b.entity_label("actor");
        let film = b.entity_label("film");
        let a0 = b.entity(actor, "a0");
        let a1 = b.entity(actor, "a1");
        let f = b.entity(film, "f");
        b.edge(a0, f).unwrap();
        b.edge(a1, f).unwrap();
        let g = b.build();
        let s = GraphStats::of(&g);
        assert_eq!(s.num_nodes, 3);
        assert_eq!(s.num_edges, 2);
        assert_eq!(s.num_entities, 3);
        assert_eq!(s.max_degree, 2);
        assert!((s.mean_degree - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.per_label, vec![(actor, 2), (film, 1)]);
        assert!(s.summary(&g).contains("actor: 2"));
    }

    #[test]
    fn histogram_and_pair_counts() {
        let mut b = GraphBuilder::new();
        let actor = b.entity_label("actor");
        let film = b.entity_label("film");
        let a0 = b.entity(actor, "a0");
        let a1 = b.entity(actor, "a1");
        let f = b.entity(film, "f");
        b.edge(a0, f).unwrap();
        b.edge(a1, f).unwrap();
        let g = b.build();
        assert_eq!(
            degree_histogram(&g),
            vec![0, 2, 1],
            "two degree-1, one degree-2"
        );
        assert_eq!(
            label_pair_edge_counts(&g),
            vec![(("actor".into(), "film".into()), 2)]
        );
    }

    #[test]
    fn top_by_degree_sorted() {
        let mut b = GraphBuilder::new();
        let actor = b.entity_label("actor");
        let film = b.entity_label("film");
        let a0 = b.entity(actor, "a0");
        let a1 = b.entity(actor, "a1");
        let f0 = b.entity(film, "f0");
        let f1 = b.entity(film, "f1");
        b.edge(a0, f0).unwrap();
        b.edge(a0, f1).unwrap();
        b.edge(a1, f1).unwrap();
        let g = b.build();
        let top = entities_by_degree(&g, actor);
        assert_eq!(top, vec![a0, a1]);
    }
}
