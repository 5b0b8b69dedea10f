//! Adaptive SpGEMM accumulation: operand views, per-row accumulators,
//! and arena-reused scratch.
//!
//! The Gustavson numeric phase spends its time scattering `va·vb`
//! products into a per-row accumulator. One accumulator shape cannot be
//! right for every row of a Zipf-skewed graph: a hub row touching
//! thousands of columns wants a dense array it can stream, while the
//! long tail of rows touching a handful of columns pays dearly for
//! striding (and then resetting) a `ncols`-wide buffer. This module
//! provides both shapes and lets the kernel pick per row, for free,
//! using the exact nnz upper bounds the symbolic pass already computed:
//!
//! * **dense tiled** ([`WorkerScratch::numeric_row_dense`]): a
//!   [`TILE_WIDTH`]-column window of `f64` accumulators (16 KiB —
//!   L1-resident) swept left to right across the output row. Each
//!   operand row keeps a resumable cursor, so every `b` row is streamed
//!   exactly once; tiles no cursor points into are skipped entirely.
//!   Emission walks an occupancy bitmap in ascending bit order — no
//!   sort, and a sparsely hit tile costs its entries, not its width.
//!   Rows whose cursors would be re-probed across many tiles for few
//!   products each instead drain in one pass over a wider L2-resident
//!   window ([`WIDE_TILE_CAP`]), cursor-free.
//! * **sparse hash** ([`WorkerScratch::numeric_row_sparse`]): a small
//!   power-of-two open-addressing table (≤50% load) keyed by column,
//!   with an insertion-order slot list that is sorted at emission.
//!   Sized from the row's symbolic bound, it stays a few KiB for tail
//!   rows instead of touching the whole output width.
//!
//! **Bit-identity invariant.** Both paths add the products contributing
//! to one output column in exactly the order the reference kernel does —
//! ascending `k` over the `a`-row's entries (each `b` row contributes at
//! most one product per column, and both the tile sweep and the hash
//! probe preserve first-to-last visit order per column) — so the
//! computed `f64` sums are bit-identical to the historical dense
//! `RowWorkspace` kernel for every policy, thread count, and operand
//! representation. The proptests in `tests/proptests.rs` pin this
//! against an independent dense reference.
//!
//! Scratch lives in a [`SpgemmArena`] so a chain of products allocates
//! each worker's accumulators once per chain, not once per product.

use crate::compact::CsrCompact;
use crate::csr::Csr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Column-tile width of the dense accumulator path: 2048 `f64` slots is
/// 16 KiB, half a typical 32 KiB L1d, leaving the other half for the
/// streamed operand rows and output.
pub(crate) const TILE_WIDTH: usize = 2048;

/// Widest single-pass accumulator the dense path may use: 32768 `f64`
/// slots is 256 KiB — L2-resident, not L1. When a row's operand cursors
/// would be re-probed across many tiles for only a few products each
/// (short `b` rows under a wide output), one L2-latency pass beats
/// `tiles × cursors` L1 passes, so the row drains cursor-free into this
/// wider window instead. Outputs wider than the cap always tile.
pub(crate) const WIDE_TILE_CAP: usize = 32768;

/// Empty-slot sentinel of the hash accumulator. The sparse path is only
/// selected when `ncols <= u32::MAX`, so no real column collides with it.
const EMPTY: u32 = u32::MAX;

/// Fibonacci-hashing multiplier (the 64-bit golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-flop cost discount the planner assumes for a compact (delta
/// encoded) right operand: fewer bytes streamed per entry.
pub(crate) const COMPACT_FLOP_DISCOUNT: f64 = 0.85;

/// Estimated flop-equivalents per entry to delta-encode an operand.
pub(crate) const COMPACT_CONVERT_COST: f64 = 1.0;

/// Minimum `flops / nnz(b)` reuse ratio before auto-compaction pays for
/// the conversion pass.
pub(crate) const COMPACT_MIN_REUSE: f64 = 4.0;

/// Which per-row accumulator the numeric phase uses.
///
/// The default ([`Accumulator::Adaptive`]) picks per row from the
/// symbolic pass's exact nnz bound; the forced variants exist for
/// benchmarking each path in isolation (`spgemm --accumulator …`) and
/// for the policy-pinning proptests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accumulator {
    /// Per-row choice: sparse hash below the cutoff, dense tiled above.
    Adaptive,
    /// Every row through the dense tiled path.
    Dense,
    /// Every row through the sparse hash path (wide rows get a
    /// proportionally larger table; rows of matrices with `ncols >
    /// u32::MAX` still fall back to dense, where no sentinel exists).
    Sparse,
}

/// Whether the kernel may delta-encode its right operand on the fly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactMode {
    /// Compact when eligible and the product's flop count amortizes the
    /// conversion ([`COMPACT_MIN_REUSE`]); the default.
    Auto,
    /// Never compact.
    Off,
    /// Compact whenever the shape permits (`spgemm --compact-csr`).
    On,
}

/// Process-wide accumulator policy; 0 = adaptive, 1 = dense, 2 = sparse.
static ACCUMULATOR: AtomicU8 = AtomicU8::new(0);
/// Process-wide compaction mode; 0 = auto, 1 = off, 2 = on.
static COMPACT: AtomicU8 = AtomicU8::new(0);

/// Installs a process-wide accumulator policy (the `spgemm` bench bin's
/// `--accumulator` flag). Output is bit-identical under every policy;
/// only the constant factor changes.
pub fn set_accumulator(policy: Accumulator) {
    let v = match policy {
        Accumulator::Adaptive => 0,
        Accumulator::Dense => 1,
        Accumulator::Sparse => 2,
    };
    ACCUMULATOR.store(v, Ordering::Relaxed);
}

/// The current process-wide accumulator policy.
pub fn accumulator() -> Accumulator {
    match ACCUMULATOR.load(Ordering::Relaxed) {
        1 => Accumulator::Dense,
        2 => Accumulator::Sparse,
        _ => Accumulator::Adaptive,
    }
}

/// Installs a process-wide compaction mode (the `spgemm` bench bin's
/// `--compact-csr` flag). Output is bit-identical under every mode.
pub fn set_compact_mode(mode: CompactMode) {
    let v = match mode {
        CompactMode::Auto => 0,
        CompactMode::Off => 1,
        CompactMode::On => 2,
    };
    COMPACT.store(v, Ordering::Relaxed);
}

/// The current process-wide compaction mode.
pub fn compact_mode() -> CompactMode {
    match COMPACT.load(Ordering::Relaxed) {
        1 => CompactMode::Off,
        2 => CompactMode::On,
        _ => CompactMode::Auto,
    }
}

/// Rows whose symbolic bound is at most this go through the sparse hash
/// accumulator under the adaptive policy. `ncols / 64` tracks the dense
/// path's fixed per-row cost — its occupancy scan reads one word per 64
/// columns — so the hash table (plus its emit sort) is only chosen when
/// the row is too small to amortize that scan; the floor keeps genuinely
/// tiny rows off the tile sweep even in narrow matrices.
pub(crate) fn sparse_cutoff(ncols: usize) -> usize {
    (ncols / 64).max(64)
}

/// A read-side view of the streamed (right) operand, monomorphized into
/// the kernel inner loops: plain CSR slices or delta-encoded compact
/// storage with on-the-fly decode.
///
/// Row entries are visited as `(index, running previous column)` pairs:
/// `col_at(i, prev)` returns entry `i`'s column given the decoded column
/// of entry `i - 1` of the same row (`0` at a row start). The plain view
/// ignores `prev`; the compact view adds its `u16` delta to it. This
/// shape lets the tiled path suspend mid-row at a tile boundary and
/// resume without re-decoding the prefix.
pub(crate) trait Operand: Copy + Send + Sync {
    /// Start/end entry indices of row `k`.
    fn row_bounds(&self, k: usize) -> (usize, usize);
    /// Column of entry `i`, given the previous decoded column of its row.
    fn col_at(&self, i: usize, prev: u32) -> u32;
    /// Value of entry `i` (bit-identical across representations).
    fn val_at(&self, i: usize) -> f64;
}

/// [`Operand`] over a plain [`Csr`]'s raw arrays.
#[derive(Clone, Copy)]
pub(crate) struct PlainView<'a> {
    row_ptr: &'a [usize],
    cols: &'a [u32],
    vals: &'a [f64],
}

impl<'a> PlainView<'a> {
    pub(crate) fn of(m: &'a Csr) -> Self {
        let (row_ptr, cols, vals) = m.parts();
        PlainView {
            row_ptr,
            cols,
            vals,
        }
    }
}

impl Operand for PlainView<'_> {
    #[inline(always)]
    fn row_bounds(&self, k: usize) -> (usize, usize) {
        (self.row_ptr[k], self.row_ptr[k + 1])
    }

    #[inline(always)]
    fn col_at(&self, i: usize, _prev: u32) -> u32 {
        self.cols[i]
    }

    #[inline(always)]
    fn val_at(&self, i: usize) -> f64 {
        self.vals[i]
    }
}

/// [`Operand`] over delta-encoded compact storage (the layout of
/// [`CsrCompact`], borrowed from arena buffers so conversion allocates
/// nothing after the first product of a chain).
#[derive(Clone, Copy)]
pub(crate) struct CompactView<'a> {
    row_ptr: &'a [u32],
    deltas: &'a [u16],
    vals: &'a [f64],
}

impl Operand for CompactView<'_> {
    #[inline(always)]
    fn row_bounds(&self, k: usize) -> (usize, usize) {
        (self.row_ptr[k] as usize, self.row_ptr[k + 1] as usize)
    }

    #[inline(always)]
    fn col_at(&self, i: usize, prev: u32) -> u32 {
        prev + u32::from(self.deltas[i])
    }

    #[inline(always)]
    fn val_at(&self, i: usize) -> f64 {
        self.vals[i]
    }
}

/// Delta-encodes `m` into the given arena buffers and returns a borrowed
/// [`CompactView`] over them. The caller checked eligibility
/// ([`CsrCompact::eligible`]); values are copied bit-verbatim.
pub(crate) fn compact_into<'a>(
    m: &Csr,
    row_ptr: &'a mut Vec<u32>,
    deltas: &'a mut Vec<u16>,
    vals: &'a mut Vec<f64>,
) -> CompactView<'a> {
    debug_assert!(CsrCompact::eligible(m.ncols(), m.nnz()));
    let (m_ptr, m_cols, m_vals) = m.parts();
    row_ptr.clear();
    row_ptr.reserve(m_ptr.len());
    deltas.clear();
    deltas.reserve(m_cols.len());
    row_ptr.push(0);
    for k in 0..m.nrows() {
        let mut prev = 0u32;
        for &c in &m_cols[m_ptr[k]..m_ptr[k + 1]] {
            deltas.push((c - prev) as u16);
            prev = c;
        }
        row_ptr.push(deltas.len() as u32);
    }
    vals.clear();
    vals.extend_from_slice(m_vals);
    CompactView {
        row_ptr,
        deltas,
        vals,
    }
}

/// Per-worker accumulator scratch. All buffers grow to a high-water mark
/// and are reused across rows, products, and (via [`SpgemmArena`]) whole
/// chains. Between rows every buffer is restored to its resting state
/// (`seen` all-false, hash table all-[`EMPTY`], tile all-zero), so an
/// aborted band leaves the scratch immediately reusable.
pub(crate) struct WorkerScratch {
    /// Dense symbolic occupancy bitmap, `>= ncols` entries.
    seen: Vec<bool>,
    /// Columns marked in `seen`, for O(touched) reset.
    touched: Vec<u32>,
    /// Hash accumulator keys; [`EMPTY`] marks a free slot.
    slot_col: Vec<u32>,
    /// Hash accumulator sums, parallel to `slot_col`.
    slot_val: Vec<f64>,
    /// Occupied hash slots in insertion order, packed as
    /// `(column << 32) | slot` so the emit sort orders by column without
    /// an indirect key lookup per comparison.
    order: Vec<u64>,
    /// The dense path's tile of column accumulators.
    tile: Vec<f64>,
    /// Occupancy bitmap over `tile`, one bit per slot: scan-out walks set
    /// bits (ascending — column order) instead of probing every slot, so
    /// a sparsely hit tile costs its entries, not its width.
    tile_bits: Vec<u64>,
    /// Per-`a`-entry resumable positions into `b`: `(next, end, prev)`.
    cursor: Vec<(usize, usize, u32)>,
    /// `a` values parallel to `cursor` (rows with empty `b` rows dropped).
    cursor_va: Vec<f64>,
}

/// Tallies of the numeric phase's per-row policy decisions, surfaced as
/// `repsim.sparse.spgemm.numeric.{dense_rows,sparse_rows,tile_count}`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NumericTally {
    /// Rows computed by the dense tiled path.
    pub dense_rows: u64,
    /// Rows computed by the sparse hash path.
    pub sparse_rows: u64,
    /// Column tiles actually swept (empty tiles are skipped).
    pub tile_count: u64,
}

impl NumericTally {
    pub(crate) fn absorb(&mut self, other: NumericTally) {
        self.dense_rows += other.dense_rows;
        self.sparse_rows += other.sparse_rows;
        self.tile_count += other.tile_count;
    }
}

impl WorkerScratch {
    pub(crate) fn new() -> Self {
        WorkerScratch {
            seen: Vec::new(),
            touched: Vec::new(),
            slot_col: Vec::new(),
            slot_val: Vec::new(),
            order: Vec::new(),
            tile: Vec::new(),
            tile_bits: Vec::new(),
            cursor: Vec::new(),
            cursor_va: Vec::new(),
        }
    }

    /// Grows the fixed-size buffers for a product with `ncols` output
    /// columns. Called on the coordinating thread before bands spawn, so
    /// workers never allocate on the hot path.
    pub(crate) fn prepare(&mut self, ncols: usize) {
        if self.seen.len() < ncols {
            self.seen.resize(ncols, false);
        }
        let tile = WIDE_TILE_CAP.min(ncols.max(1));
        if self.tile.len() < tile {
            self.tile.resize(tile, 0.0);
        }
        let words = tile.div_ceil(64);
        if self.tile_bits.len() < words {
            self.tile_bits.resize(words, 0);
        }
    }

    /// Grows the hash table to a power-of-two size holding `need`
    /// distinct columns at ≤50% load. Existing slots are untouched (they
    /// are all [`EMPTY`] between rows), so growth preserves the resting
    /// state. Returns `(mask, shift)` for the probe sequence.
    fn table_for(&mut self, need: usize) -> (usize, u32) {
        let size = (2 * need.max(1)).next_power_of_two().max(8);
        if self.slot_col.len() < size {
            self.slot_col.resize(size, EMPTY);
            self.slot_val.resize(size, 0.0);
        }
        (size - 1, 64 - size.trailing_zeros())
    }

    /// Symbolic pass, dense shape: counts the distinct columns of output
    /// row `r = a_row · B` with the occupancy bitmap (the historical
    /// kernel's exact loop).
    pub(crate) fn symbolic_row_dense<B: Operand>(&mut self, acols: &[u32], b: &B) -> usize {
        self.touched.clear();
        for &k in acols {
            let (lo, hi) = b.row_bounds(k as usize);
            let mut prev = 0u32;
            for i in lo..hi {
                let c = b.col_at(i, prev);
                prev = c;
                if !self.seen[c as usize] {
                    self.seen[c as usize] = true;
                    self.touched.push(c);
                }
            }
        }
        for &c in &self.touched {
            self.seen[c as usize] = false;
        }
        self.touched.len()
    }

    /// Symbolic pass, sparse shape: counts distinct columns in a hash
    /// table sized by the row's flop count (an upper bound on distinct
    /// columns), never touching the `ncols`-wide bitmap.
    pub(crate) fn symbolic_row_sparse<B: Operand>(
        &mut self,
        acols: &[u32],
        b: &B,
        flops: usize,
    ) -> usize {
        let (mask, shift) = self.table_for(flops);
        self.order.clear();
        for &k in acols {
            let (lo, hi) = b.row_bounds(k as usize);
            let mut prev = 0u32;
            for i in lo..hi {
                let c = b.col_at(i, prev);
                prev = c;
                let mut h = (u64::from(c).wrapping_mul(HASH_MUL) >> shift) as usize;
                loop {
                    let sc = self.slot_col[h];
                    if sc == c {
                        break;
                    }
                    if sc == EMPTY {
                        self.slot_col[h] = c;
                        self.order.push(h as u64);
                        break;
                    }
                    h = (h + 1) & mask;
                }
            }
        }
        let distinct = self.order.len();
        for &s in &self.order {
            self.slot_col[(s & 0xFFFF_FFFF) as usize] = EMPTY;
        }
        distinct
    }

    /// Numeric pass, sparse shape: accumulates `a_row · B` in the hash
    /// table (additions in product-visit order — the reference order),
    /// then emits the occupied slots sorted by column, dropping exact
    /// zeros. Returns the entry count written to `cols_out`/`vals_out`.
    pub(crate) fn numeric_row_sparse<B: Operand>(
        &mut self,
        acols: &[u32],
        avals: &[f64],
        b: &B,
        bound: usize,
        cols_out: &mut [u32],
        vals_out: &mut [f64],
    ) -> usize {
        let (mask, shift) = self.table_for(bound);
        self.order.clear();
        for (&k, &va) in acols.iter().zip(avals) {
            let (lo, hi) = b.row_bounds(k as usize);
            let mut prev = 0u32;
            for i in lo..hi {
                let c = b.col_at(i, prev);
                prev = c;
                let p = va * b.val_at(i);
                let mut h = (u64::from(c).wrapping_mul(HASH_MUL) >> shift) as usize;
                loop {
                    let sc = self.slot_col[h];
                    if sc == c {
                        self.slot_val[h] += p;
                        break;
                    }
                    if sc == EMPTY {
                        self.slot_col[h] = c;
                        self.slot_val[h] = p;
                        self.order.push((u64::from(c) << 32) | h as u64);
                        break;
                    }
                    h = (h + 1) & mask;
                }
            }
        }
        let order = &mut self.order;
        let slot_col = &mut self.slot_col;
        let slot_val = &self.slot_val;
        order.sort_unstable();
        let mut n = 0;
        for &packed in order.iter() {
            let s = (packed & 0xFFFF_FFFF) as usize;
            let v = slot_val[s];
            slot_col[s] = EMPTY;
            if v != 0.0 {
                cols_out[n] = (packed >> 32) as u32;
                vals_out[n] = v;
                n += 1;
            }
        }
        n
    }

    /// Numeric pass, dense tiled shape: sweeps a [`TILE_WIDTH`]-column
    /// accumulator window across the output row. Each `a`-entry's `b` row
    /// keeps a resumable cursor; within a tile, cursors drain in `a`-row
    /// order (ascending `k` — the reference accumulation order per
    /// column), and the occupancy bitmap then scans out set slots in
    /// ascending column order, so no sort is needed and a sparsely hit
    /// tile costs its entries rather than its width. Only tiles some
    /// cursor points into are visited. Returns `(entries, tiles swept)`.
    // The argument list mirrors the per-row kernel contract (operand
    // views in, carved output slices out); bundling them into a struct
    // would only move the same eight names behind a constructor.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn numeric_row_dense<B: Operand>(
        &mut self,
        acols: &[u32],
        avals: &[f64],
        b: &B,
        ncols: usize,
        flops: u64,
        cols_out: &mut [u32],
        vals_out: &mut [f64],
    ) -> (usize, u64) {
        // Wide single-pass mode: when the whole output row fits the
        // capped window and the tiled sweep would spend a significant
        // fraction of its time re-probing suspended cursors (`cursors ×
        // tiles`, each probe costing about as much as a multiply-add),
        // drain every `b` row start-to-finish instead — no cursors, one
        // tile, occupancy-bitmap emission. The L2-latency scatter is
        // ~30% dearer per flop than the L1 tile, so wide wins once the
        // probe volume passes a third of the flop count.
        if ncols <= WIDE_TILE_CAP
            && 3 * (acols.len() as u64) * (ncols.div_ceil(TILE_WIDTH) as u64) > flops
        {
            let tile = &mut self.tile;
            let bits = &mut self.tile_bits;
            for (&k, &va) in acols.iter().zip(avals) {
                let (lo, hi) = b.row_bounds(k as usize);
                let mut prev = 0u32;
                for i in lo..hi {
                    let c = b.col_at(i, prev);
                    prev = c;
                    let j = c as usize;
                    tile[j] += va * b.val_at(i);
                    bits[j >> 6] |= 1u64 << (j & 63);
                }
            }
            let mut n = 0usize;
            for (w, word) in bits[..ncols.div_ceil(64)].iter_mut().enumerate() {
                let mut m = *word;
                if m == 0 {
                    continue;
                }
                *word = 0;
                let word_base = w << 6;
                while m != 0 {
                    let j = word_base + m.trailing_zeros() as usize;
                    m &= m - 1;
                    let v = tile[j];
                    if v != 0.0 {
                        tile[j] = 0.0;
                        cols_out[n] = j as u32;
                        vals_out[n] = v;
                        n += 1;
                    }
                }
            }
            return (n, 1);
        }
        self.cursor.clear();
        self.cursor_va.clear();
        let mut first = usize::MAX;
        for (&k, &va) in acols.iter().zip(avals) {
            let (lo, hi) = b.row_bounds(k as usize);
            if lo == hi {
                continue;
            }
            let c0 = b.col_at(lo, 0) as usize;
            first = first.min(c0);
            self.cursor.push((lo, hi, 0u32));
            self.cursor_va.push(va);
        }
        if self.cursor.is_empty() {
            return (0, 0);
        }
        let tile = &mut self.tile;
        let bits = &mut self.tile_bits;
        let cursors = &mut self.cursor;
        let vas = &self.cursor_va;
        let mut n = 0usize;
        let mut tiles = 0u64;
        let mut live = cursors.len();
        let mut tile_base = (first / TILE_WIDTH) * TILE_WIDTH;
        while live > 0 {
            let tile_end = tile_base + TILE_WIDTH;
            // The next tile some cursor's pending column falls in; refreshed
            // from every cursor that suspends at this tile's edge.
            let mut next_col = usize::MAX;
            tiles += 1;
            for (cur, &va) in cursors.iter_mut().zip(vas) {
                if cur.0 == cur.1 {
                    continue;
                }
                loop {
                    let c = b.col_at(cur.0, cur.2) as usize;
                    if c >= tile_end {
                        next_col = next_col.min(c);
                        break;
                    }
                    let j = c - tile_base;
                    tile[j] += va * b.val_at(cur.0);
                    bits[j >> 6] |= 1u64 << (j & 63);
                    cur.2 = c as u32;
                    cur.0 += 1;
                    if cur.0 == cur.1 {
                        live -= 1;
                        break;
                    }
                }
            }
            // Scan the occupancy words out in column order. Cancelled
            // (exact-zero) sums are skipped and are already the resting
            // 0.0, so only emitted slots need clearing. Only this tile's
            // words — the buffer is sized for the wide mode.
            let nwords = bits.len().min(TILE_WIDTH.div_ceil(64));
            for (w, word) in bits[..nwords].iter_mut().enumerate() {
                let mut m = *word;
                if m == 0 {
                    continue;
                }
                *word = 0;
                let word_base = w << 6;
                while m != 0 {
                    let j = word_base + m.trailing_zeros() as usize;
                    m &= m - 1;
                    let v = tile[j];
                    if v != 0.0 {
                        tile[j] = 0.0;
                        cols_out[n] = (tile_base + j) as u32;
                        vals_out[n] = v;
                        n += 1;
                    }
                }
            }
            if live == 0 {
                break;
            }
            debug_assert_ne!(next_col, usize::MAX);
            tile_base = (next_col / TILE_WIDTH) * TILE_WIDTH;
        }
        (n, tiles)
    }
}

/// Reusable SpGEMM scratch: per-worker accumulators plus the shared
/// per-product arrays (symbolic bounds, prefix sums, flop weights,
/// per-row entry counts, and the delta-encoded operand buffers).
///
/// One arena serves an entire chain of products — `chain::eval` threads
/// it through every join, so a 6-factor commuting build performs one
/// scratch allocation per worker for the whole chain instead of one per
/// product. Buffers only ever grow; an aborted product leaves the arena
/// immediately reusable (worker scratch is restored between rows, and
/// the shared arrays are cleared at the start of each product).
///
/// The arena holds no output: the numeric phase writes each product
/// straight into its own exact-size arrays, so an entry is stored once
/// and the product's memory is what the budget's nnz cap admits.
#[derive(Default)]
pub struct SpgemmArena {
    pub(crate) workers: Vec<WorkerScratch>,
    pub(crate) bound: Vec<usize>,
    pub(crate) bound_ptr: Vec<usize>,
    pub(crate) row_flops: Vec<u64>,
    pub(crate) count: Vec<usize>,
    pub(crate) compact_row_ptr: Vec<u32>,
    pub(crate) compact_delta: Vec<u16>,
    pub(crate) compact_vals: Vec<f64>,
}

impl SpgemmArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        SpgemmArena::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_knobs_roundtrip() {
        for p in [
            Accumulator::Dense,
            Accumulator::Sparse,
            Accumulator::Adaptive,
        ] {
            set_accumulator(p);
            assert_eq!(accumulator(), p);
        }
        for m in [CompactMode::Off, CompactMode::On, CompactMode::Auto] {
            set_compact_mode(m);
            assert_eq!(compact_mode(), m);
        }
    }

    #[test]
    fn cutoff_scales_with_width() {
        assert_eq!(sparse_cutoff(0), 64);
        assert_eq!(sparse_cutoff(6400), 100);
        assert!(sparse_cutoff(1 << 20) > 192);
    }

    #[test]
    fn compact_view_decodes_plain_columns() {
        let m = crate::par::tests::sample(17, 23, 42);
        let (mut rp, mut dl, mut vl) = (Vec::new(), Vec::new(), Vec::new());
        let view = compact_into(&m, &mut rp, &mut dl, &mut vl);
        let plain = PlainView::of(&m);
        for k in 0..m.nrows() {
            assert_eq!(view.row_bounds(k), plain.row_bounds(k));
            let (lo, hi) = view.row_bounds(k);
            let mut prev = 0u32;
            for i in lo..hi {
                let c = view.col_at(i, prev);
                assert_eq!(c, plain.col_at(i, 0));
                assert_eq!(view.val_at(i).to_bits(), plain.val_at(i).to_bits());
                prev = c;
            }
        }
    }
}
