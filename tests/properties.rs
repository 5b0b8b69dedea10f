//! Property-based tests over randomly generated databases.
//!
//! The single most load-bearing invariant in the workspace is that the
//! commuting-matrix computation agrees with explicit walk enumeration —
//! every similarity score rests on it — so it is checked against random
//! graphs and meta-walks, not just fixtures. The transformation round-trip
//! and metric axioms get the same treatment.

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use repsim::prelude::*;
use repsim_core::QueryEngine;
use repsim_eval::top_k_kendall;
use repsim_metawalk::commuting::{
    count_between, informative_commuting, plain_commuting, try_informative_segments,
};
use repsim_metawalk::walk;
use repsim_sparse::par::shard_band;
use repsim_sparse::{Budget, Parallelism};
use repsim_transform::reify::{CollapseRelNodes, ReifyEdges};
use repsim_transform::verify::same_information;

/// A random bipartite-ish multi-label graph: `sizes[i]` entities per
/// label, plus `edges` as (label a, index, label b, index) picks.
#[derive(Debug, Clone)]
struct RandomGraph {
    sizes: Vec<u8>,
    edges: Vec<(u8, u8, u8, u8)>,
}

fn random_graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (
        prop::collection::vec(1u8..5, 2..4),
        prop::collection::vec((0u8..4, 0u8..5, 0u8..4, 0u8..5), 1..25),
    )
        .prop_map(|(sizes, edges)| RandomGraph { sizes, edges })
}

fn build(rg: &RandomGraph) -> Graph {
    let mut b = GraphBuilder::new();
    let labels: Vec<LabelId> = (0..rg.sizes.len())
        .map(|i| b.entity_label(&format!("l{i}")))
        .collect();
    let nodes: Vec<Vec<NodeId>> = rg
        .sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            (0..n)
                .map(|j| b.entity(labels[i], &format!("v{i}_{j}")))
                .collect()
        })
        .collect();
    for &(la, ia, lb, ib) in &rg.edges {
        let la = la as usize % rg.sizes.len();
        let lb = lb as usize % rg.sizes.len();
        let a = nodes[la][ia as usize % rg.sizes[la] as usize];
        let c = nodes[lb][ib as usize % rg.sizes[lb] as usize];
        if a != c {
            let _ = b.edge_dedup(a, c);
        }
    }
    b.build()
}

/// A schema-valid random meta-walk of the given node length, or None if
/// the graph has no instances to follow.
fn random_meta_walk(g: &Graph, len: usize, start_pick: u8) -> Option<MetaWalk> {
    let schema = repsim_graph::SchemaGraph::of(g);
    let labels: Vec<LabelId> = g.labels().ids().collect();
    let mut cur = labels[start_pick as usize % labels.len()];
    let mut seq = vec![cur];
    for step in 0..len - 1 {
        let nbrs = schema.neighbors(cur);
        if nbrs.is_empty() {
            return None;
        }
        cur = nbrs[(start_pick as usize + step * 7) % nbrs.len()];
        seq.push(cur);
    }
    Some(MetaWalk::from_labels(g.labels(), &seq))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commuting_matrix_agrees_with_enumeration(
        rg in random_graph_strategy(),
        len in 2usize..5,
        pick in 0u8..8,
    ) {
        let g = build(&rg);
        let Some(mw) = random_meta_walk(&g, len, pick) else { return Ok(()); };
        let plain = plain_commuting(&g, &mw);
        let inf = informative_commuting(&g, &mw);
        for &e in g.nodes_of_label(mw.source()) {
            for &f in g.nodes_of_label(mw.target()) {
                prop_assert_eq!(
                    count_between(&g, &mw, &plain, e, f),
                    walk::count_instances(&g, &mw, e, f) as f64
                );
                prop_assert_eq!(
                    count_between(&g, &mw, &inf, e, f),
                    walk::count_informative(&g, &mw, e, f) as f64
                );
            }
        }
    }

    #[test]
    fn reify_collapse_roundtrip_preserves_information(rg in random_graph_strategy()) {
        let g = build(&rg);
        let reify = ReifyEdges {
            a_label: "l0".into(),
            b_label: "l1".into(),
            rel_label: "rel".into(),
        };
        let collapse = CollapseRelNodes { rel_label: "rel".into() };
        let tg = reify.apply(&g).unwrap();
        let back = collapse.apply(&tg).unwrap();
        prop_assert!(same_information(&g, &back));
    }

    #[test]
    fn informative_counts_bounded_by_plain(
        rg in random_graph_strategy(),
        len in 2usize..5,
        pick in 0u8..8,
    ) {
        let g = build(&rg);
        let Some(mw) = random_meta_walk(&g, len, pick) else { return Ok(()); };
        let plain = plain_commuting(&g, &mw);
        let inf = informative_commuting(&g, &mw);
        for (r, c, v) in inf.iter() {
            prop_assert!(v <= plain.get(r, c), "informative ⊆ all instances");
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn kendall_tau_axioms(
        scores_a in prop::collection::vec(0u8..6, 0..8),
        scores_b in prop::collection::vec(0u8..6, 0..8),
    ) {
        let a: Vec<(usize, f64)> = scores_a.iter().enumerate()
            .map(|(i, &s)| (i, s as f64)).collect();
        let b: Vec<(usize, f64)> = scores_b.iter().enumerate()
            .map(|(i, &s)| (i, s as f64)).collect();
        let d_ab = top_k_kendall(&a, &b);
        let d_ba = top_k_kendall(&b, &a);
        prop_assert!((d_ab - d_ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0).contains(&d_ab), "range");
        prop_assert_eq!(top_k_kendall(&a, &a), 0.0, "identity");
    }

    #[test]
    fn ranking_is_sorted_and_bounded(
        rg in random_graph_strategy(),
        k in 1usize..6,
    ) {
        let g = build(&rg);
        let l0 = g.labels().get("l0").unwrap();
        let Some(&q) = g.nodes_of_label(l0).first() else { return Ok(()); };
        let mut alg = repsim::baselines::Rwr::new(&g);
        let list = alg.rank(q, l0, k);
        prop_assert!(list.len() <= k);
        let entries = list.entries();
        for w in entries.windows(2) {
            prop_assert!(w[0].1 >= w[1].1, "descending scores");
        }
        prop_assert!(entries.iter().all(|&(n, _)| n != q), "query excluded");
    }

    #[test]
    fn io_roundtrip_random_graphs(rg in random_graph_strategy()) {
        let g = build(&rg);
        let back = repsim::graph::io::read(&repsim::graph::io::write(&g).unwrap()).unwrap();
        prop_assert!(same_information(&g, &back));
    }

    #[test]
    fn rwr_scores_form_distribution(rg in random_graph_strategy()) {
        let g = build(&rg);
        let l0 = g.labels().get("l0").unwrap();
        let Some(&q) = g.nodes_of_label(l0).first() else { return Ok(()); };
        let rwr = repsim::baselines::Rwr::new(&g);
        let s = rwr.scores(q);
        let total: f64 = s.iter().sum();
        prop_assert!(s.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
        prop_assert!(total <= 1.0 + 1e-6, "mass never exceeds 1, got {}", total);
    }
}

/// A random citation-style graph for the query engine's factor chains:
/// entity labels `a`, `b`, `c`; `a` cites `a` through `r` relationship
/// nodes (a same-label hop whose diagonal the informative build
/// removes), and direct `a–b`, `b–b` and `b–c` edges.
#[derive(Debug, Clone)]
struct ChainGraph {
    sizes: (u8, u8, u8),
    cites: Vec<(u8, u8)>,
    ab: Vec<(u8, u8)>,
    bb: Vec<(u8, u8)>,
    bc: Vec<(u8, u8)>,
}

fn chain_graph_strategy() -> impl Strategy<Value = ChainGraph> {
    let pairs = || prop::collection::vec((0u8..8, 0u8..8), 0..24);
    // Few-target `a–b` and `b–c` edges make hubs, whose half matrices
    // are denser than their segments.
    let hubs = || prop::collection::vec((0u8..8, 0u8..2), 4..24);
    ((1u8..8, 1u8..6, 1u8..6), pairs(), hubs(), pairs(), hubs()).prop_map(
        |(sizes, cites, ab, bb, bc)| ChainGraph {
            sizes,
            cites,
            ab,
            bb,
            bc,
        },
    )
}

fn build_chain_graph(cg: &ChainGraph) -> Graph {
    let mut b = GraphBuilder::new();
    let (la, lb, lc) = (
        b.entity_label("a"),
        b.entity_label("b"),
        b.entity_label("c"),
    );
    let r = b.relationship_label("r");
    let mk = |b: &mut GraphBuilder, l, n: u8, p: &str| -> Vec<NodeId> {
        (0..n).map(|i| b.entity(l, &format!("{p}{i}"))).collect()
    };
    let a = mk(&mut b, la, cg.sizes.0, "a");
    let bs = mk(&mut b, lb, cg.sizes.1, "b");
    let c = mk(&mut b, lc, cg.sizes.2, "c");
    let pick = |v: &[NodeId], i: u8| v[i as usize % v.len()];
    for &(x, y) in &cg.cites {
        let (x, y) = (pick(&a, x), pick(&a, y));
        if x != y {
            let rel = b.relationship(r);
            b.edge(x, rel).unwrap();
            b.edge(rel, y).unwrap();
        }
    }
    for (pairs, from, to) in [(&cg.ab, &a, &bs), (&cg.bb, &bs, &bs), (&cg.bc, &bs, &c)] {
        for &(x, y) in pairs {
            let (x, y) = (pick(from, x), pick(to, y));
            if x != y {
                let _ = b.edge_dedup(x, y);
            }
        }
    }
    b.build()
}

/// A random half walk over [`ChainGraph`]'s schema, starting at `a` and
/// `b` alternately: `hops` entity-to-entity hops chosen by `picks`,
/// interior entities \*-marked where `stars` has the bit set. The last
/// entity stays plain — it is the junction of the symmetric closure.
fn random_half_walk(g: &Graph, hops: usize, picks: u64, stars: u8) -> MetaWalk {
    use repsim_metawalk::Step;
    let id = |name: &str| g.labels().get(name).unwrap();
    let (a, b, c, r) = (id("a"), id("b"), id("c"), id("r"));
    let mut cur = if picks & 1 == 0 { a } else { b };
    let mut steps = vec![Step::entity(cur)];
    for hop in 0..hops {
        let choice = (picks >> (2 * hop + 1)) as usize;
        let next: &[LabelId] = match cur {
            l if l == a => &[a, b],
            l if l == b => &[a, b, c],
            _ => &[b],
        };
        let next = next[choice % next.len()];
        if cur == a && next == a {
            steps.push(Step::Rel(r));
        }
        let interior = hop + 1 < hops;
        steps.push(if interior && stars & (1 << hop) != 0 {
            Step::star(next)
        } else {
            Step::entity(next)
        });
        cur = next;
    }
    MetaWalk::new(steps)
}

/// Ranks `q` once under a trace sink and returns the engine.rank span's
/// `factors` attribute: how many factors the chosen chain has.
fn ranked_factors(engine: &QueryEngine<'_>, q: NodeId) -> u64 {
    let sink = std::sync::Arc::new(repsim_obs::CollectSink::new());
    let installed: std::sync::Arc<dyn repsim_obs::Sink> = sink.clone();
    repsim_obs::install(installed.clone());
    let _ = engine.rank_ref(q, engine.half().source(), 1);
    repsim_obs::remove_sink(&installed);
    sink.events()
        .into_iter()
        .find_map(|e| match e.kind {
            repsim_obs::EventKind::SpanEnd {
                name: "repsim.core.engine.rank",
                attrs,
                ..
            } => attrs.into_iter().find_map(|(k, v)| match (k, v) {
                ("factors", repsim_obs::AttrValue::U64(n)) => Some(n),
                _ => None,
            }),
            _ => None,
        })
        .expect("engine.rank span carries a factors attribute")
}

/// The factor count the engine must pick: the half walk's segments when
/// there is more than one and their total nnz is below `nnz(M̂_q)`, else
/// the one-factor chain `[M̂_q]`.
fn expected_factors(g: &Graph, half: &MetaWalk) -> u64 {
    let segments =
        try_informative_segments(g, half, Parallelism::serial(), &Budget::unlimited()).unwrap();
    let chain_nnz: usize = segments.iter().map(|s| s.nnz()).sum();
    if segments.len() > 1 && chain_nnz < informative_commuting(g, half).nnz() {
        segments.len() as u64
    } else {
        1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine ranks through its factor chain bit-identically to
    /// R-PathSim over the materialized closure, on every band of every
    /// split, whichever chain it picked — and it picks by the nnz rule.
    #[test]
    fn engine_factor_chain_ranks_bit_identical_to_closure(
        cg in chain_graph_strategy(),
        hops in 1usize..5,
        picks in 0u64..1024,
        stars in 0u8..16,
    ) {
        let _x = repsim_obs::exclusive();
        let g = build_chain_graph(&cg);
        let half = random_half_walk(&g, hops, picks, stars);
        let engine = QueryEngine::new(&g, half.clone());
        let full = RPathSim::new(&g, half.symmetric_closure());
        let label = half.source();
        let nodes = g.nodes_of_label(label);
        prop_assert_eq!(ranked_factors(&engine, nodes[0]), expected_factors(&g, &half));
        let bits = |l: &RankedList| -> Vec<(NodeId, u64)> {
            l.entries().iter().map(|&(n, s)| (n, s.to_bits())).collect()
        };
        for &q in nodes {
            for shards in 1..=3 {
                for index in 0..shards {
                    let band = Some(shard_band(nodes.len(), index, shards));
                    for k in [2, usize::MAX] {
                        prop_assert_eq!(
                            bits(&engine.rank_band_ref(q, label, k, band)),
                            bits(&full.rank_band(q, label, k, band)),
                            "{} q={:?} band={:?} k={}",
                            half.display(g.labels()),
                            q,
                            band,
                            k
                        );
                    }
                }
            }
        }
    }
}

/// The property above covers both chain choices: replaying its 64 cases
/// (same test-name seed, same draw order), some engines rank through
/// the segments and some through the one-factor chain `[M̂_q]`.
#[test]
fn engine_factor_chain_cases_take_both_choices() {
    let _x = repsim_obs::exclusive();
    let mut seen = [false; 2];
    for case in 0..64 {
        let mut rng = proptest::TestRng::deterministic(
            "engine_factor_chain_ranks_bit_identical_to_closure",
            case,
        );
        let cg = chain_graph_strategy().generate(&mut rng);
        let hops = (1usize..5).generate(&mut rng);
        let picks = (0u64..1024).generate(&mut rng);
        let stars = (0u8..16).generate(&mut rng);
        let g = build_chain_graph(&cg);
        let half = random_half_walk(&g, hops, picks, stars);
        let engine = QueryEngine::new(&g, half.clone());
        let factors = ranked_factors(&engine, g.nodes_of_label(half.source())[0]);
        seen[usize::from(factors > 1)] = true;
    }
    assert_eq!(seen, [true, true], "[one-factor, segments] chains seen");
}
