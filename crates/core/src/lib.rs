#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

//! R-PathSim and the representation-independence framework — the paper's
//! primary contribution.
//!
//! * [`rpathsim::RPathSim`] — PathSim restricted to *informative* walks
//!   (§4.3), provably representation independent under relationship
//!   reorganizing transformations (Theorem 4.3), with §5.2's \*-label
//!   support for entity rearranging transformations (Theorem 5.2);
//! * [`metawalk_gen`] — **Algorithm 1** (FD-driven meta-walk set
//!   generation) and **Algorithm 2** (`ExtendMetaWalk`), which make the
//!   aggregated score invariant under entity rearrangement (Theorem 5.3);
//! * [`aggregate::AggregatedScorer`] — the single-score interface for users
//!   who cannot supply a meta-walk: the mean of per-meta-walk scores over a
//!   meta-walk set (§4.3's closing discussion, §5.2);
//! * [`engine::QueryEngine`] — §4.3's query-time optimization: symmetric
//!   closures factorize as `M̂_p = M̂_q·M̂_qᵀ`, so a rank is a few mat-vecs
//!   over the half walk's factor chain;
//! * [`independence`] — an executable check of Definition 2: run an
//!   algorithm over a database and its transformation and verify the
//!   rankings coincide under the entity bijection;
//! * [`budgeted::BudgetedRPathSim`] — budget-governed execution: under a
//!   [`repsim_sparse::Budget`] the build degrades through cheaper tiers
//!   (full closure → half factorization → affordable walk prefix) instead
//!   of failing, reporting the tier via [`budgeted::Degradation`].

pub mod aggregate;
pub mod budgeted;
pub mod engine;
pub mod explain;
pub mod independence;
pub mod metawalk_gen;
pub mod planner;
pub mod rpathsim;

pub use aggregate::{AggregatedScorer, CountingMode};
pub use budgeted::{BudgetedRPathSim, Degradation};
pub use engine::{EngineParts, QueryEngine};
pub use explain::{explain, Evidence};
pub use metawalk_gen::{extend_meta_walk, find_meta_walk_set};
pub use planner::{choose_plan, AutoRPathSim, Plan};
pub use rpathsim::RPathSim;
