//! Property tests for the two-phase SpGEMM kernel and the chain planner:
//!
//! 1. `spmm` equals a naive dense-reference product;
//! 2. `spmm_par` is bit-identical to `spmm` across thread counts;
//! 3. `spmm_chain` is invariant under the DP's association order versus a
//!    blind left fold (exact, because generated values are small integers
//!    and integer f64 arithmetic is associative below 2^53).

// Tests may panic freely: the workspace panic-freedom lints target
// library code, not assertions.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use proptest::prelude::*;
use repsim_sparse::chain::{spmm_chain_with_threads, try_spmm_chain_with_budget};
use repsim_sparse::ops::{spmm, spmm_chain, try_spmm_with_budget};
use repsim_sparse::par::{spmm_par, weighted_chunks};
use repsim_sparse::{
    set_accumulator, set_compact_mode, Accumulator, Budget, CompactMode, Csr, CsrCompact, ExecError,
};

/// Raw triplet material: positions are reduced modulo the actual matrix
/// dimensions, values map to non-zero integers in `-6..=6` so cancellation
/// happens but reassociation stays exact.
fn triplets() -> impl Strategy<Value = Vec<(usize, usize, u32)>> {
    proptest::collection::vec((0..10_000usize, 0..10_000usize, 0..12u32), 0..60)
}

fn build(nrows: usize, ncols: usize, raw: &[(usize, usize, u32)]) -> Csr {
    Csr::from_triplets(
        nrows,
        ncols,
        raw.iter().map(|&(r, c, v)| {
            let value = if v < 6 {
                v as f64 - 6.0
            } else {
                v as f64 - 5.0
            };
            ((r % nrows) as u32, (c % ncols) as u32, value)
        }),
    )
}

/// Naive reference: every output cell as an explicit ascending-k sum over
/// the shared dimension, canonicalized through `from_triplets`.
fn dense_reference(a: &Csr, b: &Csr) -> Csr {
    let mut trips = Vec::new();
    for r in 0..a.nrows() {
        for c in 0..b.ncols() {
            let mut sum = 0.0;
            for k in 0..a.ncols() {
                sum += a.get(r, k) * b.get(k, c);
            }
            if sum != 0.0 {
                trips.push((r as u32, c as u32, sum));
            }
        }
    }
    Csr::from_triplets(a.nrows(), b.ncols(), trips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spmm_matches_dense_reference(
        nrows in 1..12usize,
        inner in 1..12usize,
        ncols in 1..12usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let product = spmm(&a, &b);
        prop_assert_eq!(&product, &dense_reference(&a, &b));
        // No explicit zeros may survive the numeric pass.
        for r in 0..product.nrows() {
            let (_, vals) = product.row(r);
            prop_assert!(vals.iter().all(|&v| v != 0.0));
        }
    }

    #[test]
    fn spmm_par_bit_identical_to_serial(
        nrows in 1..40usize,
        inner in 1..16usize,
        ncols in 1..16usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let serial = spmm(&a, &b);
        for threads in [1usize, 2, 7, 64] {
            prop_assert_eq!(&spmm_par(&a, &b, threads), &serial, "threads={}", threads);
        }
    }

    #[test]
    fn spmm_chain_invariant_under_planned_order(
        len in 3..=5usize,
        dims in proptest::collection::vec(1..10usize, 6),
        raws in proptest::collection::vec(triplets(), 5),
    ) {
        let mats: Vec<Csr> = (0..len)
            .map(|i| build(dims[i], dims[i + 1], &raws[i]))
            .collect();
        let refs: Vec<&Csr> = mats.iter().collect();
        let folded = refs[1..]
            .iter()
            .fold(mats[0].clone(), |acc, m| spmm(&acc, m));
        prop_assert_eq!(&spmm_chain(&refs), &folded);
        for threads in [1usize, 4] {
            prop_assert_eq!(
                &spmm_chain_with_threads(&refs, threads),
                &folded,
                "threads={}",
                threads
            );
        }
    }

    // Every kernel output is a structurally sound CSR: the invariants the
    // debug-build construction hooks assert (monotone row_ptr, strictly
    // increasing in-bounds columns, consistent entry counts) re-checked
    // through the public `validate` entry so they hold in release too.
    #[test]
    fn kernel_outputs_satisfy_csr_invariants(
        nrows in 1..14usize,
        inner in 1..14usize,
        ncols in 1..14usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(a.transpose().validate(), Ok(()));
        prop_assert_eq!(spmm(&a, &b).validate(), Ok(()));
        let chained = try_spmm_chain_with_budget(&[&a, &b, &b.transpose()], 2, &Budget::unlimited());
        prop_assert_eq!(chained.expect("unlimited budget").validate(), Ok(()));
    }

    // Budgeted execution is all-or-nothing: a budget generous enough to
    // finish yields a product bit-identical to the unbudgeted kernel, and
    // a starved nnz cap yields MemoryExceeded — never a partial matrix,
    // never a panic.
    #[test]
    fn budgeted_spmm_all_or_nothing(
        nrows in 1..14usize,
        inner in 1..14usize,
        ncols in 1..14usize,
        raw_a in triplets(),
        raw_b in triplets(),
        cap in 0..40usize,
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let exact = spmm(&a, &b);
        let budget = Budget::unlimited().with_max_nnz(cap);
        match try_spmm_with_budget(&a, &b, 2, &budget) {
            Ok(c) => {
                prop_assert_eq!(&c, &exact);
                // The symbolic bound (not the post-cancellation count) is
                // what the cap admits, so success implies the bound fit.
                prop_assert!(exact.nnz() <= cap);
            }
            Err(ExecError::MemoryExceeded { nnz, limit }) => {
                prop_assert_eq!(limit, cap);
                prop_assert!(nnz > cap);
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }

    // Accumulator policy must never show through: whether a row runs the
    // tiled-dense path, the hash-sparse path, or the adaptive mix, and
    // whether the right operand is delta-compacted or plain, the output
    // must be bit-identical to the dense reference at every thread count.
    // (The policy knobs are process-global atomics; every policy yields
    // the same bits, so concurrently running tests are unaffected.)
    #[test]
    fn forced_accumulators_bit_identical_across_threads(
        nrows in 1..40usize,
        inner in 1..16usize,
        ncols in 1..16usize,
        raw_a in triplets(),
        raw_b in triplets(),
    ) {
        let a = build(nrows, inner, &raw_a);
        let b = build(inner, ncols, &raw_b);
        let reference = dense_reference(&a, &b);
        for policy in [Accumulator::Dense, Accumulator::Sparse, Accumulator::Adaptive] {
            for mode in [CompactMode::Off, CompactMode::On] {
                set_accumulator(policy);
                set_compact_mode(mode);
                for threads in [1usize, 3, 8] {
                    let got = spmm_par(&a, &b, threads);
                    set_accumulator(Accumulator::Adaptive);
                    set_compact_mode(CompactMode::Auto);
                    prop_assert_eq!(
                        &got, &reference,
                        "policy={:?} compact={:?} threads={}", policy, mode, threads
                    );
                    // Bit-level check on top of Eq: identical raw f64 bits.
                    for r in 0..got.nrows() {
                        let (gc, gv) = got.row(r);
                        let (rc, rv) = reference.row(r);
                        prop_assert_eq!(gc, rc);
                        for (x, y) in gv.iter().zip(rv) {
                            prop_assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                    set_accumulator(policy);
                    set_compact_mode(mode);
                }
            }
        }
        set_accumulator(Accumulator::Adaptive);
        set_compact_mode(CompactMode::Auto);
    }

    // The succinct CSR is lossless on every matrix narrow enough to
    // qualify: expansion restores the exact bits (including negative
    // zeros), and re-compacting the expansion reproduces the encoding.
    #[test]
    fn csr_compact_round_trip_is_lossless(
        nrows in 1..30usize,
        ncols in 1..30usize,
        raw in triplets(),
    ) {
        let m = build(nrows, ncols, &raw);
        let compact = CsrCompact::try_from_csr(&m).expect("small dims are always eligible");
        let back = compact.to_csr();
        prop_assert_eq!(&back, &m);
        for r in 0..m.nrows() {
            let (_, mv) = m.row(r);
            let (_, bv) = back.row(r);
            for (x, y) in mv.iter().zip(bv) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let again = CsrCompact::try_from_csr(&back).expect("round trip stays eligible");
        let mut bytes = Vec::new();
        let mut bytes_again = Vec::new();
        compact.encode_into(&mut bytes);
        again.encode_into(&mut bytes_again);
        prop_assert_eq!(bytes, bytes_again);
    }

    // Same all-or-nothing property through the chain planner: whatever
    // association order the DP picks, a cap either admits the exact fold
    // or the chain aborts with a structured error.
    #[test]
    fn budgeted_chain_all_or_nothing(
        len in 2..=4usize,
        dims in proptest::collection::vec(1..9usize, 5),
        raws in proptest::collection::vec(triplets(), 4),
        cap in 0..60usize,
    ) {
        let mats: Vec<Csr> = (0..len)
            .map(|i| build(dims[i], dims[i + 1], &raws[i]))
            .collect();
        let refs: Vec<&Csr> = mats.iter().collect();
        let folded = refs[1..]
            .iter()
            .fold(mats[0].clone(), |acc, m| spmm(&acc, m));
        let budget = Budget::unlimited().with_max_nnz(cap);
        match try_spmm_chain_with_budget(&refs, 1, &budget) {
            Ok(c) => prop_assert_eq!(&c, &folded),
            Err(e) => prop_assert!(
                matches!(e, ExecError::MemoryExceeded { .. }),
                "unexpected error {:?}",
                e
            ),
        }
    }
}

/// Exact cancellation inside a multi-band product: the numeric phase
/// writes each row at its symbolic bound, so every row that cancels
/// leaves a gap the in-place compaction must close while later bands'
/// rows move left past it. The operands pair up `b` rows `2j` and
/// `2j+1` that share columns with equal values; an `a` row of
/// `(+1, -1)` over a pair cancels the shared columns (all of them for
/// the identical pairs, `j % 3 == 2`), while `(+1, +2)` cancels nothing.
/// The first and last row of every band at every thread count cancels.
#[test]
fn in_place_compaction_closes_gaps_across_bands() {
    let (ncols, pairs, nrows) = (300usize, 24usize, 90usize);
    let mut b_trips = Vec::new();
    for j in 0..pairs {
        let len = if j % 4 == 0 { 12 } else { 120 };
        for i in 0..len {
            let c = ((j * 5 + 2 * i) % ncols) as u32;
            let v = (i % 5 + 1) as f64;
            b_trips.push((2 * j as u32, c, v));
            b_trips.push((2 * j as u32 + 1, c, v));
        }
        if j % 3 != 2 {
            for i in 0..len {
                let c = ((j * 5 + 2 * i + 1) % ncols) as u32;
                let row = if i < len / 2 { 2 * j } else { 2 * j + 1 };
                b_trips.push((row as u32, c, (i % 3 + 1) as f64));
            }
        }
    }
    let b = Csr::from_triplets(2 * pairs, ncols, b_trips);
    // The kernel runs one band below 4096 stored entries in either operand.
    assert!(b.nnz() >= 4096, "b must be large enough to band");

    let pair_of = |r: usize| (r * 7) % pairs;
    let flops: Vec<u64> = (0..nrows)
        .map(|r| {
            let j = pair_of(r);
            (b.row(2 * j).0.len() + b.row(2 * j + 1).0.len()) as u64
        })
        .collect();
    let bands_for = |threads: usize| weighted_chunks(&flops, threads);
    let mut cancels = vec![false; nrows];
    for threads in [1usize, 2, 3] {
        let bands = bands_for(threads);
        assert_eq!(bands.len(), threads);
        for &(lo, hi) in &bands {
            cancels[lo] = true;
            cancels[hi - 1] = true;
        }
    }
    for (r, c) in cancels.iter_mut().enumerate() {
        *c |= r % 2 == 0;
    }
    let mut a_trips = Vec::new();
    for (r, &cancel) in cancels.iter().enumerate() {
        let j = pair_of(r) as u32;
        a_trips.push((r as u32, 2 * j, 1.0));
        a_trips.push((r as u32, 2 * j + 1, if cancel { -1.0 } else { 2.0 }));
    }
    let a = Csr::from_triplets(nrows, 2 * pairs, a_trips);
    let reference = dense_reference(&a, &b);
    // The symbolic bound of row r: the distinct columns of its pair.
    let bound = |r: usize| {
        let j = pair_of(r);
        let mut cols: Vec<u32> = b.row(2 * j).0.to_vec();
        cols.extend_from_slice(b.row(2 * j + 1).0);
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    };
    for (r, &cancel) in cancels.iter().enumerate() {
        assert_eq!(reference.row(r).0.len() < bound(r), cancel, "row {r}");
    }

    for policy in [
        Accumulator::Dense,
        Accumulator::Sparse,
        Accumulator::Adaptive,
    ] {
        for mode in [CompactMode::Off, CompactMode::On] {
            for threads in [1usize, 2, 3] {
                set_accumulator(policy);
                set_compact_mode(mode);
                let got = spmm_par(&a, &b, threads);
                set_accumulator(Accumulator::Adaptive);
                set_compact_mode(CompactMode::Auto);
                let ctx = format!("{policy:?}/{mode:?}/threads={threads}");
                assert_eq!(got.validate(), Ok(()), "{ctx}");
                let stored: usize = (0..nrows).map(|r| got.row(r).0.len()).sum();
                assert_eq!(stored, got.nnz(), "{ctx}: row_ptr[n] != col_idx.len()");
                assert_eq!(got.nnz(), reference.nnz(), "{ctx}");
                for r in 0..nrows {
                    let (gc, gv) = got.row(r);
                    let (rc, rv) = reference.row(r);
                    assert_eq!(gc, rc, "{ctx} row {r}");
                    for (x, y) in gv.iter().zip(rv) {
                        assert_ne!(*x, 0.0, "{ctx} row {r}: stored zero");
                        assert_eq!(x.to_bits(), y.to_bits(), "{ctx} row {r}");
                    }
                }
            }
        }
    }
}
