//! Query-time scoring without materializing the full commuting matrix.
//!
//! §4.3's closing paragraph adopts PathSim's optimization: pre-compute
//! commuting matrices for short meta-walks and concatenate at query time.
//! For the symmetric closures `p = q·q⁻¹` used by ranking queries this
//! factorizes completely: with `M̂_q` the informative commuting matrix of
//! the *half* walk,
//!
//! ```text
//! M̂_p = M̂_q · M̂_qᵀ,
//! M̂_p(e,f) = ⟨row_e(M̂_q), row_f(M̂_q)⟩,   M̂_p(e,e) = ‖row_e(M̂_q)‖².
//! ```
//!
//! The factorization is exact: informative-walk corrections act per hop
//! and every hop lies entirely inside one half (the junction is a single
//! plain-entity occurrence, so no same-label hop and no \*-run can span
//! it). The unit tests assert score equality against
//! [`crate::rpathsim::RPathSim`].
//!
//! A ranking query needs one column of `M̂_p`: the cross counts
//! `M̂_q · row_e(M̂_q)ᵀ`. `M̂_q` itself factors into the half walk's
//! segment matrices `S₁⋯S_k` (one per stretch between plain entity
//! labels, see [`try_informative_segments`]), and `M̂_q` is often far
//! denser than its factors — `film actor film` is `A·Aᵀ` for the
//! film×actor biadjacency `A`. The engine therefore keeps a *factor
//! chain*: the segments when their total nnz is below `nnz(M̂_q)`, else
//! the one-factor chain `[M̂_q]`. A rank computes `row_e(M̂_q)` left to
//! right as sparse-row scatters and the cross counts right to left as
//! dense-vector gathers, so it costs `O(Σ nnz(chain))` on the calling
//! thread — no query-time threads; [`Parallelism`] governs only the
//! build. Every count is a non-negative integer below 2⁵³, so f64
//! arithmetic on it is exact in any association and both chains give
//! bit-identical scores.

use std::sync::Arc;

use repsim_graph::{Graph, LabelId, NodeId};
use repsim_metawalk::commuting::{
    segment_count, try_informative_factored_with, try_informative_segments,
};
use repsim_metawalk::MetaWalk;
use repsim_obs::SpanGuard;
use repsim_sparse::{Budget, Csr, ExecError, Parallelism};

use repsim_baselines::ranking::{RankedList, SimilarityAlgorithm};

/// The graph-free state behind a [`QueryEngine`]: the half matrix, its
/// row-norm diagonal and the factor chain ranks sweep. Cheap to clone
/// (reference counts only), so `repsim-serve` keeps one per walk as an
/// engine seed and stamps out a borrowing engine per request without
/// any matrix work.
#[derive(Clone)]
pub struct EngineParts {
    /// `M̂_q`, shared with the commuting cache that built it.
    m_half: Arc<Csr>,
    /// `M̂_p(e,e)` per source-label index.
    diag: Arc<Vec<f64>>,
    /// The half walk's segments `S₁…S_k` when they sweep fewer entries
    /// than `M̂_q`; `None` is the one-factor chain `[M̂_q]`.
    segments: Option<Arc<[Csr]>>,
    /// False when the segment build ran out of budget and the chain fell
    /// back to `[M̂_q]` without comparing.
    settled: bool,
}

impl EngineParts {
    /// Whether the factor chain is the one the nnz rule picks. Parts
    /// whose segment build ran out of budget still rank exactly (over
    /// `[M̂_q]`), but a cache should not keep them: a later build with
    /// budget to spare may find the sparser chain.
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    /// The factor chain whose product is `M̂_q`.
    fn chain(&self) -> &[Csr] {
        match &self.segments {
            Some(s) => s,
            None => std::slice::from_ref(&*self.m_half),
        }
    }
}

/// R-PathSim scoring over the symmetric closure of a half meta-walk,
/// backed by the half matrix and its factor chain.
pub struct QueryEngine<'g> {
    g: &'g Graph,
    half: MetaWalk,
    parts: EngineParts,
}

impl<'g> QueryEngine<'g> {
    /// Builds the engine for ranking `half.source()` entities by the
    /// closed walk `half · half⁻¹`, with the default [`Parallelism`].
    pub fn new(g: &'g Graph, half: MetaWalk) -> Self {
        Self::with_parallelism(g, half, Parallelism::default())
    }

    /// [`QueryEngine::new`] with an explicit thread budget for the
    /// half-matrix build.
    pub fn with_parallelism(g: &'g Graph, half: MetaWalk, par: Parallelism) -> Self {
        #[allow(clippy::expect_used)] // documented infallible wrapper over the try_ API
        Self::try_with_budget(g, half, par, &Budget::unlimited())
            .expect("unlimited engine build cannot fail")
    }

    /// Budget-governed [`QueryEngine::with_parallelism`]: the half-matrix
    /// build runs under `budget` and aborts with a structured
    /// [`ExecError`] instead of panicking when a limit trips.
    pub fn try_with_budget(
        g: &'g Graph,
        half: MetaWalk,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<Self, ExecError> {
        let build_span = build_span(&half);
        let (m_half, segments) = try_informative_factored_with(g, &half, par, budget)?;
        Self::assemble(
            g,
            half,
            m_half.into(),
            Some(segments),
            par,
            budget,
            build_span,
        )
    }

    /// Constructs an engine from a prebuilt half matrix (a snapshot or an
    /// export), skipping the commuting-matrix chain; the half walk's
    /// segments are built under `par` to pick the factor chain.
    /// [`QueryEngine::try_from_half_matrix_with`] without a budget or
    /// prebuilt segments.
    pub fn try_from_half_matrix(
        g: &'g Graph,
        half: MetaWalk,
        m_half: impl Into<Arc<Csr>>,
        par: Parallelism,
    ) -> Result<Self, ExecError> {
        Self::try_from_half_matrix_with(g, half, m_half, None, par, &Budget::unlimited())
    }

    /// Constructs an engine from a prebuilt half matrix — the hook used
    /// by `repsim-serve` and `repsim profile`, which take the matrix from
    /// a commuting cache (shared, not copied,
    /// [`repsim_metawalk::commuting::CommutingCache::try_informative_factored`])
    /// and skip the commuting-matrix chain.
    ///
    /// `segments` are the half walk's segments when the caller already
    /// has them (a cache miss just joined them); otherwise a walk with
    /// more than one segment builds them under `par` and `budget`. A
    /// build that runs out of budget falls back to the one-factor chain
    /// `[M̂_q]` — still exact — and leaves the parts unsettled
    /// ([`EngineParts::is_settled`]). A single-segment walk builds
    /// nothing: its one segment is `M̂_q`.
    ///
    /// `m_half` must be the informative commuting matrix of `half` on
    /// `g`. Its shape is validated against the graph's label partitions
    /// here; content integrity (checksums, graph fingerprint) is the
    /// snapshot loader's job before calling.
    pub fn try_from_half_matrix_with(
        g: &'g Graph,
        half: MetaWalk,
        m_half: impl Into<Arc<Csr>>,
        segments: Option<Vec<Csr>>,
        par: Parallelism,
        budget: &Budget,
    ) -> Result<Self, ExecError> {
        let build_span = build_span(&half);
        Self::assemble(g, half, m_half.into(), segments, par, budget, build_span)
    }

    /// Validates `m_half`'s shape, then derives the diagonal and picks the
    /// factor chain: the segments when their total nnz is below
    /// `nnz(M̂_q)`, the one-factor chain `[M̂_q]` otherwise.
    fn assemble(
        g: &'g Graph,
        half: MetaWalk,
        m_half: Arc<Csr>,
        segments: Option<Vec<Csr>>,
        par: Parallelism,
        budget: &Budget,
        mut build_span: SpanGuard,
    ) -> Result<Self, ExecError> {
        if build_span.is_active() {
            build_span.attr("half_nnz", m_half.nnz());
        }
        check_shape(g, &half, &m_half)?;
        let mut settled = true;
        let segments = if segment_count(&half) < 2 {
            None
        } else {
            match segments.map_or_else(|| try_informative_segments(g, &half, par, budget), Ok) {
                Ok(s) => (s.iter().map(Csr::nnz).sum::<usize>() < m_half.nnz()).then(|| s.into()),
                Err(e) if e.is_exhaustion() => {
                    settled = false;
                    None
                }
                Err(e) => return Err(e),
            }
        };
        let diag = Arc::new(m_half.row_sq_sums());
        Ok(QueryEngine {
            g,
            half,
            parts: EngineParts {
                m_half,
                diag,
                segments,
                settled,
            },
        })
    }

    /// Constructs an engine from the parts of an earlier one
    /// ([`QueryEngine::shared_parts`]) — the zero-copy epoch hook used by
    /// `repsim-serve`, which keeps parts per walk and stamps out a
    /// borrowing engine per request.
    ///
    /// The half matrix's shape is validated against `g` like
    /// [`QueryEngine::try_from_half_matrix`] (a later epoch may have grown
    /// a label the parts no longer cover).
    pub fn try_from_shared(
        g: &'g Graph,
        half: MetaWalk,
        parts: EngineParts,
    ) -> Result<Self, ExecError> {
        check_shape(g, &half, &parts.m_half)?;
        Ok(QueryEngine { g, half, parts })
    }

    /// The half meta-walk.
    pub fn half(&self) -> &MetaWalk {
        &self.half
    }

    /// The informative commuting matrix of the half walk — the snapshot
    /// export hook ([`QueryEngine::try_from_half_matrix`] restores from
    /// it).
    pub fn half_matrix(&self) -> &Csr {
        &self.parts.m_half
    }

    /// The shared parts backing this engine — cheap to clone and free of
    /// the graph lifetime, so a server can park them in a cache keyed by
    /// walk and graph fingerprint.
    pub fn shared_parts(&self) -> EngineParts {
        self.parts.clone()
    }

    /// The closed meta-walk actually scored.
    pub fn closure(&self) -> MetaWalk {
        self.half.symmetric_closure()
    }

    /// The R-PathSim score of a pair under the closure.
    pub fn score(&self, e: NodeId, f: NodeId) -> f64 {
        let (i, j) = (self.g.index_in_label(e), self.g.index_in_label(f));
        let denom = self.parts.diag[i] + self.parts.diag[j];
        if denom == 0.0 {
            return 0.0;
        }
        let (ci, vi) = self.parts.m_half.row(i);
        let (cj, vj) = self.parts.m_half.row(j);
        let mut dot = 0.0;
        let (mut a, mut b) = (0, 0);
        while a < ci.len() && b < cj.len() {
            match ci[a].cmp(&cj[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    dot += vi[a] * vj[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        2.0 * dot / denom
    }

    /// All cross counts `M̂_p(e, ·) = M̂_q · row_e(M̂_q)ᵀ` for the query at
    /// source index `qi`, through the factor chain `S₁⋯S_k`:
    /// `row_e(M̂_q) = row_e(S₁)·S₂⋯S_k` left to right, then
    /// `S₁·(S₂·(⋯(S_k·x)))` right to left. One pass per factor on the
    /// calling thread.
    fn cross_counts(&self, qi: usize) -> Vec<f64> {
        let chain = self.parts.chain();
        let Some((first, rest)) = chain.split_first() else {
            return Vec::new(); // unreachable: a chain has at least one factor
        };
        let mut x = vec![0.0; first.ncols()];
        let (cols, vals) = first.row(qi);
        for (&c, &v) in cols.iter().zip(vals) {
            x[c as usize] = v;
        }
        for s in rest {
            x = repsim_sparse::ops::vecmat(&x, s);
        }
        for s in chain.iter().rev() {
            x = repsim_sparse::ops::matvec(s, &x);
        }
        x
    }
}

/// The `repsim.core.engine.build` span, opened before the half matrix
/// is built or taken so it covers the whole engine build.
fn build_span(half: &MetaWalk) -> SpanGuard {
    let mut span = repsim_obs::span("repsim.core.engine.build");
    if span.is_active() {
        span.attr("half", half.to_string());
    }
    span
}

/// Rejects a half matrix whose shape does not match `half`'s endpoint
/// labels on `g`.
fn check_shape(g: &Graph, half: &MetaWalk, m_half: &Csr) -> Result<(), ExecError> {
    let nrows = g.nodes_of_label(half.source()).len();
    let ncols = g.nodes_of_label(half.target()).len();
    if m_half.nrows() != nrows || m_half.ncols() != ncols {
        return Err(ExecError::ShapeMismatch {
            op: "engine_restore",
            lhs: (nrows, ncols),
            rhs: (m_half.nrows(), m_half.ncols()),
        });
    }
    Ok(())
}

impl QueryEngine<'_> {
    /// The ranking of [`SimilarityAlgorithm::rank`] through a shared
    /// reference — the engine never mutates to rank, and the serve
    /// workers share one engine per walk across threads.
    pub fn rank_ref(&self, query: NodeId, target_label: LabelId, k: usize) -> RankedList {
        self.rank_band_ref(query, target_label, k, None)
    }

    /// [`QueryEngine::rank_ref`] restricted to a contiguous index band of
    /// the candidate label's node slice (`band = (lo, hi)`, half-open over
    /// `g.nodes_of_label(target_label)`). A fleet shard ranks only its own
    /// band; the coordinator merges the per-band top-k lists. `None` ranks
    /// every candidate — identical to [`QueryEngine::rank_ref`].
    ///
    /// # Panics
    /// If the band exceeds the candidate slice.
    pub fn rank_band_ref(
        &self,
        query: NodeId,
        target_label: LabelId,
        k: usize,
        band: Option<(usize, usize)>,
    ) -> RankedList {
        assert_eq!(
            target_label,
            self.half.source(),
            "engine ranks its source label"
        );
        assert_eq!(
            self.g.label_of(query),
            self.half.source(),
            "query label mismatch"
        );
        let mut rank_span = repsim_obs::span("repsim.core.engine.rank");
        if rank_span.is_active() {
            let chain = self.parts.chain();
            rank_span.attr("k", k);
            rank_span.attr("half_nnz", self.parts.m_half.nnz());
            rank_span.attr("factors", chain.len());
            rank_span.attr("chain_nnz", chain.iter().map(Csr::nnz).sum::<usize>());
        }
        let qi = self.g.index_in_label(query);
        let cross = self.cross_counts(qi);
        let diag = &self.parts.diag;
        let qd = diag[qi];
        let candidates = self.g.nodes_of_label(target_label);
        let (lo, hi) = band.unwrap_or((0, candidates.len()));
        RankedList::from_scores(
            self.g,
            candidates[lo..hi].iter().map(|&n| {
                let j = self.g.index_in_label(n);
                let denom = qd + diag[j];
                let s = if denom == 0.0 {
                    0.0
                } else {
                    2.0 * cross[j] / denom
                };
                (n, s)
            }),
            query,
            k,
        )
    }
}

impl SimilarityAlgorithm for QueryEngine<'_> {
    fn name(&self) -> String {
        "R-PathSim (query engine)".to_owned()
    }

    fn rank(&mut self, query: NodeId, target_label: LabelId, k: usize) -> RankedList {
        self.rank_ref(query, target_label, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpathsim::RPathSim;
    use repsim_graph::GraphBuilder;

    fn mas_like() -> Graph {
        let mut b = GraphBuilder::new();
        let conf = b.entity_label("conf");
        let paper = b.entity_label("paper");
        let dom = b.entity_label("dom");
        let kw = b.entity_label("kw");
        let confs: Vec<_> = (0..4).map(|i| b.entity(conf, &format!("c{i}"))).collect();
        let doms: Vec<_> = (0..2).map(|i| b.entity(dom, &format!("d{i}"))).collect();
        let kws: Vec<_> = (0..3).map(|i| b.entity(kw, &format!("k{i}"))).collect();
        b.edge(doms[0], kws[0]).unwrap();
        b.edge(doms[0], kws[1]).unwrap();
        b.edge(doms[1], kws[1]).unwrap();
        b.edge(doms[1], kws[2]).unwrap();
        for (i, (c, d)) in [(0, 0), (0, 0), (1, 0), (2, 1), (3, 1)]
            .into_iter()
            .enumerate()
        {
            let p = b.entity(paper, &format!("p{i}"));
            b.edge(p, confs[c]).unwrap();
            b.edge(p, doms[d]).unwrap();
        }
        b.build()
    }

    #[test]
    fn engine_matches_full_matrix_scores() {
        let g = mas_like();
        for half_text in [
            "conf paper dom kw",
            "conf *paper dom kw",
            "conf paper",
            "conf paper dom",
        ] {
            let half = MetaWalk::parse_in(&g, half_text).unwrap();
            let engine = QueryEngine::new(&g, half.clone());
            let full = RPathSim::new(&g, half.symmetric_closure());
            let conf = g.labels().get("conf").unwrap();
            for &e in g.nodes_of_label(conf) {
                for &f in g.nodes_of_label(conf) {
                    let (a, b) = (engine.score(e, f), full.score(e, f));
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{half_text}: engine {a} vs full {b} at {e:?},{f:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_ranking_matches_full_matrix_ranking() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom kw").unwrap();
        let conf = g.labels().get("conf").unwrap();
        let mut engine = QueryEngine::new(&g, half.clone());
        let mut full = RPathSim::new(&g, half.symmetric_closure());
        for &q in g.nodes_of_label(conf) {
            assert_eq!(
                engine.rank(q, conf, 10).keyed(&g),
                full.rank(q, conf, 10).keyed(&g)
            );
        }
    }

    #[test]
    fn segment_build_out_of_budget_falls_back_to_the_half_matrix() {
        let g = mas_like();
        let conf = g.labels().get("conf").unwrap();
        let expired = Budget::unlimited().with_deadline_ms(0);
        for (half_text, segments) in [("conf paper dom kw", 3), ("conf paper", 1)] {
            let half = MetaWalk::parse_in(&g, half_text).unwrap();
            assert_eq!(segment_count(&half), segments);
            let full = QueryEngine::new(&g, half.clone());
            let m = full.half_matrix().clone();
            let cut = QueryEngine::try_from_half_matrix_with(
                &g,
                half,
                m,
                None,
                Parallelism::serial(),
                &expired,
            )
            .unwrap();
            // A single-segment walk builds nothing, so nothing runs out.
            assert_eq!(cut.parts.is_settled(), segments == 1, "{half_text}");
            assert_eq!(cut.parts.chain().len(), 1, "{half_text}");
            for &q in g.nodes_of_label(conf) {
                assert_eq!(
                    cut.rank_ref(q, conf, 10).keyed(&g),
                    full.rank_ref(q, conf, 10).keyed(&g)
                );
            }
        }
    }

    #[test]
    fn closure_reports_full_walk() {
        let g = mas_like();
        let half = MetaWalk::parse_in(&g, "conf paper dom").unwrap();
        let engine = QueryEngine::new(&g, half);
        assert_eq!(
            engine.closure().display(g.labels()),
            "conf paper dom paper conf"
        );
        assert_eq!(engine.half().display(g.labels()), "conf paper dom");
    }

    #[test]
    fn same_label_half_hops_supported() {
        // Half walks through equal adjacent labels (citations) still
        // factorize: corrections are per hop, inside the half.
        let mut b = GraphBuilder::new();
        let paper = b.entity_label("paper");
        let cite = b.relationship_label("cite");
        let p: Vec<_> = (0..5).map(|i| b.entity(paper, &format!("p{i}"))).collect();
        for (x, y) in [(0, 2), (1, 2), (2, 3), (3, 4)] {
            let c = b.relationship(cite);
            b.edge(p[x], c).unwrap();
            b.edge(c, p[y]).unwrap();
        }
        let g = b.build();
        let half = MetaWalk::parse_in(&g, "paper cite paper cite paper").unwrap();
        let engine = QueryEngine::new(&g, half.clone());
        let full = RPathSim::new(&g, half.symmetric_closure());
        for &e in g.nodes_of_label(g.labels().get("paper").unwrap()) {
            for &f in g.nodes_of_label(g.labels().get("paper").unwrap()) {
                assert!((engine.score(e, f) - full.score(e, f)).abs() < 1e-12);
            }
        }
    }
}
