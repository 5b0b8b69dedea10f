//! The immutable graph database type.

use std::collections::HashMap;

use crate::ids::NodeId;
use crate::label::{LabelId, LabelKind, LabelSet};

/// An immutable graph database `D = (V, E, 𝓛, 𝓐)` (§2.2).
///
/// Built with [`crate::GraphBuilder`]; guaranteed simple (no self-loops or
/// parallel edges), with values exactly on entity nodes, and with unique
/// `(label, value)` pairs among entities.
///
/// Adjacency is stored CSR-style with per-node sorted neighbor lists, and
/// nodes are additionally partitioned by label so that label-pair
/// biadjacency matrices ([`crate::biadjacency`]) and per-label scans are
/// cheap.
#[derive(Clone, Debug)]
pub struct Graph {
    pub(crate) labels: LabelSet,
    pub(crate) node_labels: Vec<LabelId>,
    pub(crate) node_values: Vec<Option<String>>,
    pub(crate) adj_offsets: Vec<usize>,
    pub(crate) adj_targets: Vec<NodeId>,
    pub(crate) label_nodes: Vec<Vec<NodeId>>,
    pub(crate) index_in_label: Vec<u32>,
    pub(crate) entity_lookup: HashMap<(LabelId, String), NodeId>,
}

impl Graph {
    /// The label registry.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_labels.len()
    }

    /// Total number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adj_targets.len() / 2
    }

    /// Number of entity nodes.
    pub fn num_entities(&self) -> usize {
        self.labels
            .entity_ids()
            .map(|l| self.label_nodes[l.index()].len())
            .sum()
    }

    /// The label of a node.
    pub fn label_of(&self, n: NodeId) -> LabelId {
        self.node_labels[n.index()]
    }

    /// The value of a node (`None` exactly for relationship nodes).
    pub fn value_of(&self, n: NodeId) -> Option<&str> {
        self.node_values[n.index()].as_deref()
    }

    /// Whether a node is an entity.
    pub fn is_entity(&self, n: NodeId) -> bool {
        self.labels.kind(self.label_of(n)) == LabelKind::Entity
    }

    /// The sorted neighbor list of a node.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adj_targets[self.adj_offsets[n.index()]..self.adj_offsets[n.index() + 1]]
    }

    /// The degree of a node.
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// Whether an edge exists between two nodes.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// All nodes of a label, ascending by node id.
    pub fn nodes_of_label(&self, l: LabelId) -> &[NodeId] {
        &self.label_nodes[l.index()]
    }

    /// The position of a node within [`Graph::nodes_of_label`] of its own
    /// label — the row/column index used by biadjacency matrices.
    pub fn index_in_label(&self, n: NodeId) -> usize {
        self.index_in_label[n.index()] as usize
    }

    /// Looks up the unique entity with the given label and value.
    pub fn entity(&self, label: LabelId, value: &str) -> Option<NodeId> {
        self.entity_lookup.get(&(label, value.to_owned())).copied()
    }

    /// Looks up an entity by label *name* and value.
    pub fn entity_by_name(&self, label: &str, value: &str) -> Option<NodeId> {
        self.labels.get(label).and_then(|l| self.entity(l, value))
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterates over all entity node ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.is_entity(n))
    }

    /// Iterates over all edges as `(a, b)` pairs with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Neighbors of `n` restricted to a label (a sorted sub-slice scan).
    pub fn neighbors_with_label(&self, n: NodeId, l: LabelId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(n)
            .iter()
            .copied()
            .filter(move |&m| self.label_of(m) == l)
    }

    /// The canonical human-readable form of a node: `label:value` for
    /// entities, bare `label` for relationship nodes (the paper's `l:val`
    /// notation).
    pub fn display_node(&self, n: NodeId) -> String {
        let label = self.labels.name(self.label_of(n));
        match self.value_of(n) {
            Some(v) => format!("{label}:{v}"),
            None => label.to_owned(),
        }
    }

    /// A stable sort key for a node that does not depend on node ids:
    /// `(label name, value)`. Used for representation-independent
    /// tie-breaking in rankings.
    pub fn sort_key(&self, n: NodeId) -> (String, String) {
        let (label, value) = self.sort_key_ref(n);
        (label.to_owned(), value.to_owned())
    }

    /// [`Graph::sort_key`] borrowed from the graph, for comparisons that
    /// should not allocate. `str` orders like `String`, so both keys sort
    /// identically.
    pub fn sort_key_ref(&self, n: NodeId) -> (&str, &str) {
        (
            self.labels.name(self.label_of(n)),
            self.value_of(n).unwrap_or_default(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::label::LabelKind;

    #[test]
    fn accessors_on_small_graph() {
        let mut b = GraphBuilder::new();
        let actor = b.label("actor", LabelKind::Entity);
        let film = b.label("film", LabelKind::Entity);
        let starring = b.label("starring", LabelKind::Relationship);
        let ford = b.entity(actor, "H. Ford");
        let sw = b.entity(film, "Star Wars V");
        let s = b.relationship(starring);
        b.edge(ford, s).unwrap();
        b.edge(s, sw).unwrap();
        let g = b.build();

        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_entities(), 2);
        assert_eq!(g.label_of(ford), actor);
        assert_eq!(g.value_of(ford), Some("H. Ford"));
        assert_eq!(g.value_of(s), None);
        assert!(g.is_entity(sw));
        assert!(!g.is_entity(s));
        assert_eq!(g.neighbors(s), &[ford, sw]);
        assert_eq!(g.degree(ford), 1);
        assert!(g.has_edge(ford, s));
        assert!(!g.has_edge(ford, sw));
        assert_eq!(g.nodes_of_label(actor), &[ford]);
        assert_eq!(g.index_in_label(sw), 0);
        assert_eq!(g.entity(actor, "H. Ford"), Some(ford));
        assert_eq!(g.entity_by_name("film", "Star Wars V"), Some(sw));
        assert_eq!(g.entity(actor, "nobody"), None);
        assert_eq!(g.display_node(ford), "actor:H. Ford");
        assert_eq!(g.display_node(s), "starring");
        assert_eq!(g.edges().count(), 2);
        assert_eq!(g.entity_ids().count(), 2);
        assert_eq!(
            g.neighbors_with_label(s, film).collect::<Vec<_>>(),
            vec![sw]
        );
        assert_eq!(g.sort_key(ford), ("actor".into(), "H. Ford".into()));
    }
}
