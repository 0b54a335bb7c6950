//! Dense `f32` math kernels shared by forward and backward passes.
//!
//! All matrices are row-major. The layer beneath the autodiff tape:
//!
//! * **Blocked GEMM microkernels** — register-tiled (`MR`×`NR`) inner
//!   loops with optional panel packing for the shared `b` operand, in the
//!   three orientations the tape needs (`A·B`, `A·Bᵀ`, `Aᵀ·B`).
//! * **Fused elementwise passes** — the whole LSTM gate block, softmax
//!   rows, and batch-norm forward/backward each run in a single traversal
//!   instead of a dozen tape ops.
//! * **Deterministic multi-threading** — [`set_threads`] installs a
//!   worker budget; every kernel partitions work by *problem shape only*
//!   (never by thread count), and the one true reduction
//!   ([`gemm_tn_acc`]'s sum over `k`) uses fixed-size chunks combined in
//!   a fixed-order pairwise tree, so results are bit-identical at any
//!   thread count.
//!
//! ## NaN policy
//!
//! Kernels never take data-dependent shortcuts: a historical bug skipped
//! multiplication when the `a` element was `0.0`, which silently turned
//! `0 · NaN` into "no contribution" and hid diverging gradients flowing
//! through zero activations. Every kernel here computes the full product
//! so NaN/Inf propagate as IEEE arithmetic dictates. The fast
//! transcendentals ([`fast_exp`], [`fast_sigmoid`], [`fast_tanh`]) are
//! branchless polynomial approximations that likewise propagate NaN.

use std::sync::atomic::{AtomicUsize, Ordering};

// --------------------------------------------------------------- threading

static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set the kernel worker budget. Thread count never changes results (see
/// module docs); it only changes how many cores chew on large kernels.
pub fn set_threads(n: usize) {
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current kernel worker budget.
pub fn threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed)
}

/// Resolve the kernel thread budget from the environment
/// (`EHNA_KERNEL_THREADS`), falling back to `min(requested,
/// available_parallelism)`. Returns the resolved count without
/// installing it.
pub fn resolve_threads(requested: usize) -> usize {
    if let Ok(v) = std::env::var("EHNA_KERNEL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    requested.clamp(1, host).max(1)
}

/// Split `rows` into at most `threads()` contiguous parts of at least
/// `min_rows` each and run `f(first_row, c_part)` on every part, in
/// parallel when more than one part exists. Partitioning cannot change
/// results: every kernel computes each output element with a
/// partition-independent operation order.
fn par_row_parts<F>(c: &mut [f32], rows: usize, row_len: usize, min_rows: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(c.len(), rows * row_len);
    let t = threads();
    let parts = if t <= 1 || min_rows == 0 { 1 } else { t.min(rows / min_rows).max(1) };
    if parts <= 1 {
        f(0, c);
        return;
    }
    let base = rows / parts;
    let extra = rows % parts;
    std::thread::scope(|s| {
        let mut rest = c;
        let mut row0 = 0usize;
        let mut handles = Vec::with_capacity(parts);
        for p in 0..parts {
            let nrows = base + usize::from(p < extra);
            let (part, tail) = rest.split_at_mut(nrows * row_len);
            rest = tail;
            let start = row0;
            row0 += nrows;
            let fr = &f;
            handles.push(s.spawn(move || fr(start, part)));
        }
        for h in handles {
            h.join().expect("kernel worker panicked");
        }
    });
}

// ------------------------------------------------------------------- GEMM

/// Register-tile height (rows of `c` per microkernel invocation).
const MR: usize = 8;
/// Register-tile width (columns of `c` per microkernel invocation).
const NR: usize = 32;
/// Pack the `b` panel into contiguous `k × NR` strips when the whole `b`
/// operand exceeds this many `f32`s (≈ half an L1 cache).
const PACK_ELEMS: usize = 2048;
/// `gemm_tn_acc` always splits its `k` reduction into chunks of this many
/// rows (when `k` exceeds it) — chunking is keyed on the problem shape,
/// not the thread count, so the fixed-order tree reduction over the
/// partial products is bit-identical at any parallelism.
const TN_CHUNK: usize = 128;
/// Minimum `m · k · n` before a GEMM fans out to worker threads.
const PAR_FLOP_FLOOR: usize = 1 << 15;

/// `c += a (m×k) · b (k×n)`.
///
/// Each `c[i][j]` is computed as a fresh accumulator summed over `p`
/// ascending via `mul_add` (one IEEE fused multiply-add per term), then
/// added to `c[i][j]` once — the same per-element chain in the tiled
/// body, the edge tails, and every thread partition.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let packed: Option<Vec<f32>> = if k * n > PACK_ELEMS && k > 0 {
        // Pack b into j-major panels of NR columns (zero-padded), so the
        // microkernel streams contiguous memory even for wide b.
        let panels = n.div_ceil(NR);
        let mut buf = vec![0.0f32; panels * k * NR];
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let dst = &mut buf[jp * k * NR..(jp + 1) * k * NR];
            for p in 0..k {
                dst[p * NR..p * NR + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
            }
        }
        Some(buf)
    } else {
        None
    };
    let min_rows = if m * k * n >= PAR_FLOP_FLOOR { MR } else { 0 };
    par_row_parts(c, m, n, min_rows, |row0, cpart| {
        let rows = cpart.len() / n;
        match &packed {
            Some(pb) => gemm_block_packed(rows, k, n, &a[row0 * k..], pb, cpart),
            None => gemm_block(rows, k, n, &a[row0 * k..], b, cpart),
        }
    });
}

/// Unpacked microkernel: `c (rows×n) += a (rows×k) · b (k×n)`.
fn gemm_block(rows: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            if mr == MR && nr == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let bp = &b[p * n + j..p * n + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * k + p];
                        for (av_acc, &bv) in accr.iter_mut().zip(bp) {
                            *av_acc = av.mul_add(bv, *av_acc);
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let crow = &mut c[(i + r) * n + j..(i + r) * n + j + NR];
                    for (cv, &s) in crow.iter_mut().zip(accr) {
                        *cv += s;
                    }
                }
            } else {
                gemm_tail(i, mr, j, nr, k, n, a, |p, jj| b[p * n + jj], c);
            }
            j += nr;
        }
        i += mr;
    }
}

/// Packed-panel microkernel: identical math, `b` pre-packed `NR`-wide.
fn gemm_block_packed(rows: usize, k: usize, n: usize, a: &[f32], pb: &[f32], c: &mut [f32]) {
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        let mut j = 0;
        let mut jp = 0;
        while j < n {
            let nr = NR.min(n - j);
            let panel = &pb[jp * k * NR..(jp + 1) * k * NR];
            if mr == MR && nr == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let bp = &panel[p * NR..(p + 1) * NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = a[(i + r) * k + p];
                        for (av_acc, &bv) in accr.iter_mut().zip(bp) {
                            *av_acc = av.mul_add(bv, *av_acc);
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let crow = &mut c[(i + r) * n + j..(i + r) * n + j + NR];
                    for (cv, &s) in crow.iter_mut().zip(accr) {
                        *cv += s;
                    }
                }
            } else {
                gemm_tail(i, mr, j, nr, k, n, a, |p, jj| panel[p * NR + (jj - j)], c);
            }
            j += nr;
            jp += 1;
        }
        i += mr;
    }
}

/// Edge-tile fallback with the same per-element accumulation chain as the
/// register tile (fresh accumulator, `p` ascending, one add into `c`).
#[inline]
#[allow(clippy::too_many_arguments)]
fn gemm_tail(
    i: usize,
    mr: usize,
    j: usize,
    nr: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b_at: impl Fn(usize, usize) -> f32,
    c: &mut [f32],
) {
    for r in 0..mr {
        let arow = &a[(i + r) * k..(i + r) * k + k];
        for jj in j..j + nr {
            let mut s = 0.0f32;
            for (p, &av) in arow.iter().enumerate() {
                s = av.mul_add(b_at(p, jj), s);
            }
            c[(i + r) * n + jj] += s;
        }
    }
}

/// Dot-product accumulator lanes for [`gemm_nt_acc`]: each `c[i][j]` sums
/// `LANES` interleaved partial sums combined in a fixed pairwise tree.
const LANES: usize = 8;

/// `c += a (m×k) · bᵀ (n×k)ᵀ=(k×n)` where `b` is stored as `n×k`.
///
/// Equivalently: `c[i][j] += Σ_p a[i][p] * b[j][p]`. When `m` is large
/// enough to amortize it, `b` is transpose-packed into the same k-major
/// `NR`-wide panels [`gemm_acc`] uses, so both kernels share the
/// register-tiled microkernel and the same per-element accumulation chain
/// (fresh accumulator, `p` ascending, one add into `c`). Small problems
/// fall back to a row-dot loop.
pub fn gemm_nt_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if m >= 2 * MR && k > 0 {
        // Transpose-pack bᵀ into j-major panels of NR columns
        // (zero-padded), identical layout to gemm_acc's packed path.
        let panels = n.div_ceil(NR);
        let mut buf = vec![0.0f32; panels * k * NR];
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let dst = &mut buf[jp * k * NR..(jp + 1) * k * NR];
            for jj in 0..w {
                let bcol = &b[(j0 + jj) * k..(j0 + jj) * k + k];
                for (p, &v) in bcol.iter().enumerate() {
                    dst[p * NR + jj] = v;
                }
            }
        }
        let min_rows = if m * k * n >= PAR_FLOP_FLOOR { MR } else { 0 };
        par_row_parts(c, m, n, min_rows, |row0, cpart| {
            let rows = cpart.len() / n;
            gemm_block_packed(rows, k, n, &a[row0 * k..], &buf, cpart);
        });
        return;
    }
    let min_rows = if m * k * n >= PAR_FLOP_FLOOR { 1 } else { 0 };
    par_row_parts(c, m, n, min_rows, |row0, cpart| {
        let rows = cpart.len() / n;
        for i in 0..rows {
            let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
            let crow = &mut cpart[i * n..(i + 1) * n];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                *cv += dot_lanes(arow, brow);
            }
        }
    });
}

/// Fixed-shape dot product: `LANES` interleaved accumulators over the
/// aligned body, a scalar tail, then a fixed pairwise-tree combine. The
/// reduction order depends only on `k`.
#[inline]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let body = k - k % LANES;
    let mut acc = [0.0f32; LANES];
    // `chunks_exact` hands the optimizer fixed-width slices (no bounds
    // checks), which is what lets this loop vectorize; the operation
    // order per accumulator lane is unchanged.
    for (ca, cb) in a[..body].chunks_exact(LANES).zip(b[..body].chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] = ca[l].mul_add(cb[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&av, &bv) in a[body..].iter().zip(&b[body..]) {
        tail = av.mul_add(bv, tail);
    }
    // Pairwise tree: ((0+1)+(2+3)) + ((4+5)+(6+7)), then the tail.
    let mut gap = 1;
    while gap < LANES {
        let mut l = 0;
        while l + gap < LANES {
            acc[l] += acc[l + gap];
            l += 2 * gap;
        }
        gap *= 2;
    }
    acc[0] + tail
}

/// `c += aᵀ (k×m)ᵀ=(m×k) · b (k×n)` where `a` is stored as `k×m`.
///
/// Equivalently: `c[i][j] += Σ_p a[p][i] * b[p][j]` — the
/// gradient-accumulation GEMM (`dW += Xᵀ·G`), whose reduction runs over
/// the batch dimension `k`. The sum is split into fixed `TN_CHUNK`-row
/// chunks whenever `k > TN_CHUNK` (regardless of thread count); chunk
/// partials are computed independently (in parallel when threads are
/// available) and combined by a fixed-order pairwise tree, so the result
/// is bit-identical at any thread count.
pub fn gemm_tn_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k <= TN_CHUNK {
        tn_chunk(m, k, n, a, b, c);
        return;
    }
    let chunks = k.div_ceil(TN_CHUNK);
    let mut partials = vec![0.0f32; chunks * m * n];
    // Each worker owns a contiguous run of chunk partials (one chunk per
    // "row" of `par_row_parts`); a chunk's partial never depends on which
    // worker computes it.
    par_row_parts(&mut partials, chunks, m * n, 1, |c0, run| {
        for (ci, part) in run.chunks_mut(m * n).enumerate() {
            let p0 = (c0 + ci) * TN_CHUNK;
            let rows = TN_CHUNK.min(k - p0);
            tn_chunk(m, rows, n, &a[p0 * m..(p0 + rows) * m], &b[p0 * n..(p0 + rows) * n], part);
        }
    });
    // Fixed-order pairwise tree over chunk partials: partial[i] +=
    // partial[i+gap] for gap = 1, 2, 4, ... — the combine order depends
    // only on the chunk count (a function of k), never on threads.
    let mut gap = 1;
    while gap < chunks {
        let mut i = 0;
        while i + gap < chunks {
            let (lo, hi) = partials.split_at_mut((i + gap) * m * n);
            let dst = &mut lo[i * m * n..i * m * n + m * n];
            let src = &hi[..m * n];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            i += 2 * gap;
        }
        gap *= 2;
    }
    for (cv, &p) in c.iter_mut().zip(&partials[..m * n]) {
        *cv += p;
    }
}

/// One reduction chunk of [`gemm_tn_acc`]: `c += aᵀ·b`, register-tiled
/// `MR × NR` over `(i, j)`. Each tile loads its `c` block into
/// accumulators once, runs the full `p`-ascending reduction (`a[p][i]`
/// broadcast against the `b[p]` row slice, one `mul_add` per term), and
/// stores once — so the chunk's partial never streams through memory per
/// reduction row. Every element's value is the serial `p`-ascending FMA
/// chain seeded from the incoming `c` value; that chain is independent of
/// the tile shape (an f32 round-trips storage exactly), so the result is
/// bit-identical to any row-swept formulation. No data-dependent skips:
/// `0 · NaN` must stay NaN.
fn tn_chunk(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut i = 0;
    while i < m {
        let tm = MR.min(m - i);
        let mut j = 0;
        while j < n {
            let tn = NR.min(n - j);
            if tm == MR && tn == NR {
                let mut acc = [[0.0f32; NR]; MR];
                for (r, accr) in acc.iter_mut().enumerate() {
                    accr.copy_from_slice(&c[(i + r) * n + j..(i + r) * n + j + NR]);
                }
                for p in 0..k {
                    let arow = &a[p * m + i..p * m + i + MR];
                    let brow = &b[p * n + j..p * n + j + NR];
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let av = arow[r];
                        for (cv, &bv) in accr.iter_mut().zip(brow) {
                            *cv = av.mul_add(bv, *cv);
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    c[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
                }
            } else {
                for r in 0..tm {
                    for jj in j..j + tn {
                        let mut cv = c[(i + r) * n + jj];
                        for p in 0..k {
                            cv = a[p * m + i + r].mul_add(b[p * n + jj], cv);
                        }
                        c[(i + r) * n + jj] = cv;
                    }
                }
            }
            j += tn;
        }
        i += tm;
    }
}

/// `out[i] += x[i] * y[i]` (fused multiply-accumulate over slices).
pub fn fma_acc(x: &[f32], y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), out.len());
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        *o += a * b;
    }
}

/// Fill each of `m` rows of `out` with `bias` (the `x·W + b` initializer:
/// GEMM then accumulates on top, fusing the bias add for free).
pub fn bias_rows_fill(m: usize, n: usize, bias: &[f32], out: &mut [f32]) {
    debug_assert_eq!(bias.len(), n);
    debug_assert_eq!(out.len(), m * n);
    for row in out.chunks_exact_mut(n) {
        row.copy_from_slice(bias);
    }
}

/// `dst[j] += Σ_i g[i][j]` — the bias gradient (column sums).
pub fn col_sum_acc(m: usize, n: usize, g: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(dst.len(), n);
    for row in g.chunks_exact(n) {
        for (d, &v) in dst.iter_mut().zip(row) {
            *d += v;
        }
    }
}

// -------------------------------------------------- fast transcendentals

const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// Branchless polynomial `exp` (≈2e-5 relative error): `2^(x·log₂e)`
/// split into an exponent-bits scale and a degree-6 polynomial for the
/// fraction. NaN propagates (through `clamp`/`floor`/the polynomial);
/// extreme finite inputs saturate near `2^±126` instead of overflowing.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    let z = (x * LOG2_E).clamp(-126.0, 126.0); // NaN stays NaN
    let zf = z.floor();
    let f = z - zf; // in [0, 1); NaN stays NaN
                    // exp(f·ln2) Taylor through degree 6 (Horner via fused multiply-add;
                    // the linear coefficient is ln 2).
    let p = f.mul_add(
        f.mul_add(
            f.mul_add(
                f.mul_add(
                    f.mul_add(f.mul_add(1.540_353e-4, 0.001_333_355_8), 0.009_618_129),
                    0.055_504_11,
                ),
                0.240_226_5,
            ),
            std::f32::consts::LN_2,
        ),
        1.0,
    );
    // Biased exponent `zf + 127 ∈ [1, 253]` read straight out of the
    // mantissa of `zf + 127 + 2^23` (exact: the ulp there is 1), so no
    // saturating float→int cast blocks vectorization. A NaN `zf` yields
    // garbage scale bits, and `p` carries the NaN through the product.
    let biased = (zf + (127.0 + EXP_SHIFT)).to_bits() - EXP_SHIFT.to_bits();
    p * f32::from_bits(biased << 23)
}

/// `2^23`: adding it to a small non-negative integer-valued `f32` puts
/// the integer in the low mantissa bits.
const EXP_SHIFT: f32 = 8_388_608.0;

/// Branchless logistic sigmoid built on [`fast_exp`]; NaN propagates,
/// saturates to (0, 1) exclusive at the extremes.
#[inline(always)]
pub fn fast_sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + fast_exp(-x))
}

/// Branchless tanh built on [`fast_exp`]; NaN propagates, output stays
/// strictly inside (-1, 1).
#[inline(always)]
pub fn fast_tanh(x: f32) -> f32 {
    1.0 - 2.0 / (1.0 + fast_exp(2.0 * x))
}

// ------------------------------------------------------- fused LSTM cell

/// The LSTM cell on one row with hidden width `h` — the only copy of the
/// cell math. `pre` is the row's gate preactivations `[i|f|g|o]` (`4h`),
/// `cp` its previous cell state (`h`). Writes the activated gates
/// `gates = [i|f|g|o|tanh(c_new)]` (`5h`, kept for the backward pass)
/// and the new states `h_new`, `c_new` (`h` each).
#[inline]
fn lstm_cell_row(pre: &[f32], cp: &[f32], gates: &mut [f32], h_new: &mut [f32], c_new: &mut [f32]) {
    let h = cp.len();
    let (gi, rest) = gates.split_at_mut(h);
    let (gf, rest) = rest.split_at_mut(h);
    let (gg, rest) = rest.split_at_mut(h);
    let (go, gtc) = rest.split_at_mut(h);
    // Narrow per-gate passes (one activation kind, two streams each)
    // vectorize where a fused 7-stream loop does not.
    for (d, &p) in gi.iter_mut().zip(&pre[..h]) {
        *d = fast_sigmoid(p);
    }
    for (d, &p) in gf.iter_mut().zip(&pre[h..2 * h]) {
        *d = fast_sigmoid(p);
    }
    for (d, &p) in gg.iter_mut().zip(&pre[2 * h..3 * h]) {
        *d = fast_tanh(p);
    }
    for (d, &p) in go.iter_mut().zip(&pre[3 * h..4 * h]) {
        *d = fast_sigmoid(p);
    }
    for j in 0..h {
        let c = gf[j] * cp[j] + gi[j] * gg[j];
        let tc = fast_tanh(c);
        gtc[j] = tc;
        h_new[j] = go[j] * tc;
        c_new[j] = c;
    }
}

/// Backward of [`lstm_cell_row`]: from the saved `gates`, the previous
/// cell `cp` and the upstream state gradients `gh`, `gc`, accumulate
/// (`+=`) into the preactivation gradient `dpre` (`4h`) and, when given,
/// the previous-cell gradient `dcp` (`h`).
#[inline]
fn lstm_cell_row_backward(
    gates: &[f32],
    cp: &[f32],
    gh: &[f32],
    gc: &[f32],
    dpre: &mut [f32],
    dcp: Option<&mut [f32]>,
) {
    let h = cp.len();
    // Every slice re-cut to exactly `h` so the loops carry no bounds
    // checks and vectorize; the per-element math is order-independent.
    let (gi, rest) = gates.split_at(h);
    let (gf, rest) = rest.split_at(h);
    let (gg, rest) = rest.split_at(h);
    let (go, gtc) = rest.split_at(h);
    let (gtc, gh, gc) = (&gtc[..h], &gh[..h], &gc[..h]);
    let (di, rest) = dpre.split_at_mut(h);
    let (df, rest) = rest.split_at_mut(h);
    let (dg, d_o) = rest.split_at_mut(h);
    let d_o = &mut d_o[..h];
    let mut dcp = dcp.map(|d| &mut d[..h]);
    for j in 0..h {
        let (i, f, g, o, tc) = (gi[j], gf[j], gg[j], go[j], gtc[j]);
        let d_out = gh[j] * tc;
        let d_c = gc[j] + gh[j] * o * (1.0 - tc * tc);
        if let Some(dcp) = dcp.as_deref_mut() {
            dcp[j] += d_c * f;
        }
        let d_i = d_c * g;
        let d_g = d_c * i;
        let d_f = d_c * cp[j];
        di[j] += d_i * i * (1.0 - i);
        df[j] += d_f * f * (1.0 - f);
        dg[j] += d_g * (1.0 - g * g);
        d_o[j] += d_out * o * (1.0 - o);
    }
}

/// Fused LSTM cell forward over `b` rows with hidden width `h`: `pre`
/// (`b × 4h`) and `c_prev` (`b × h`) in; the gates (`b × 5h`, see
/// `lstm_cell_row`) and the new states `h_new`, `c_new` (`b × h`
/// each) out.
pub fn lstm_cell_forward(
    b: usize,
    h: usize,
    pre: &[f32],
    c_prev: &[f32],
    gates: &mut [f32],
    h_new: &mut [f32],
    c_new: &mut [f32],
) {
    debug_assert_eq!(pre.len(), b * 4 * h);
    debug_assert_eq!(c_prev.len(), b * h);
    debug_assert_eq!(gates.len(), b * 5 * h);
    debug_assert_eq!((h_new.len(), c_new.len()), (b * h, b * h));
    for r in 0..b {
        lstm_cell_row(
            &pre[r * 4 * h..(r + 1) * 4 * h],
            &c_prev[r * h..(r + 1) * h],
            &mut gates[r * 5 * h..(r + 1) * 5 * h],
            &mut h_new[r * h..(r + 1) * h],
            &mut c_new[r * h..(r + 1) * h],
        );
    }
}

/// Fused LSTM cell backward over `b` rows (see
/// `lstm_cell_row_backward`); `d_cprev` is `None` when the previous
/// cell state is a structural zero whose gradient nobody reads.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_backward(
    b: usize,
    h: usize,
    gates: &[f32],
    c_prev: &[f32],
    g_h: &[f32],
    g_c: &[f32],
    d_pre: &mut [f32],
    mut d_cprev: Option<&mut [f32]>,
) {
    debug_assert_eq!(gates.len(), b * 5 * h);
    debug_assert_eq!(c_prev.len(), b * h);
    debug_assert_eq!((g_h.len(), g_c.len()), (b * h, b * h));
    debug_assert_eq!(d_pre.len(), b * 4 * h);
    for r in 0..b {
        let rows = r * h..(r + 1) * h;
        lstm_cell_row_backward(
            &gates[r * 5 * h..(r + 1) * 5 * h],
            &c_prev[rows.clone()],
            &g_h[rows.clone()],
            &g_c[rows.clone()],
            &mut d_pre[r * 4 * h..(r + 1) * 4 * h],
            d_cprev.as_deref_mut().map(|d| &mut d[rows]),
        );
    }
}

/// Single-step LSTM cell forward in the per-step tape op's layout: the
/// combined state `hc = [h_new | c_new]` (`b × 2h`) and `aux` = the
/// gates (`b × 5h`). Same cell math as [`lstm_cell_forward`].
pub fn lstm_step_forward(
    b: usize,
    h: usize,
    pre: &[f32],
    c_prev: &[f32],
    hc: &mut [f32],
    aux: &mut [f32],
) {
    debug_assert_eq!(pre.len(), b * 4 * h);
    debug_assert_eq!(c_prev.len(), b * h);
    debug_assert_eq!(hc.len(), b * 2 * h);
    debug_assert_eq!(aux.len(), b * 5 * h);
    for r in 0..b {
        let (h_new, c_new) = hc[r * 2 * h..(r + 1) * 2 * h].split_at_mut(h);
        lstm_cell_row(
            &pre[r * 4 * h..(r + 1) * 4 * h],
            &c_prev[r * h..(r + 1) * h],
            &mut aux[r * 5 * h..(r + 1) * 5 * h],
            h_new,
            c_new,
        );
    }
}

/// Backward of [`lstm_step_forward`]. `g_hc` is the upstream gradient of
/// the combined `[h_new | c_new]` output; accumulates into the
/// preactivation gradient `d_pre` (`b × 4h`, `+=`) and the previous-cell
/// gradient `d_cprev` (`b × h`, `+=`).
pub fn lstm_step_backward(
    b: usize,
    h: usize,
    aux: &[f32],
    c_prev: &[f32],
    g_hc: &[f32],
    d_pre: &mut [f32],
    d_cprev: &mut [f32],
) {
    debug_assert_eq!(aux.len(), b * 5 * h);
    debug_assert_eq!(c_prev.len(), b * h);
    debug_assert_eq!(g_hc.len(), b * 2 * h);
    debug_assert_eq!(d_pre.len(), b * 4 * h);
    debug_assert_eq!(d_cprev.len(), b * h);
    for r in 0..b {
        let (g_h, g_c) = g_hc[r * 2 * h..(r + 1) * 2 * h].split_at(h);
        lstm_cell_row_backward(
            &aux[r * 5 * h..(r + 1) * 5 * h],
            &c_prev[r * h..(r + 1) * h],
            g_h,
            g_c,
            &mut d_pre[r * 4 * h..(r + 1) * 4 * h],
            Some(&mut d_cprev[r * h..(r + 1) * h]),
        );
    }
}

// ----------------------------------------------------------- fused softmax

/// Numerically-stable row softmax with defined degenerate behavior: a row
/// whose finite maximum does not exist (all `-inf`) yields the uniform
/// distribution `1/n` — the natural "no preference" limit — instead of
/// the `0/0 = NaN` the naive formula produces. Rows containing NaN
/// propagate NaN (they are *not* treated as degenerate).
///
/// # Panics
/// Panics on zero-width rows (`n == 0`): there is no distribution over
/// nothing.
pub fn softmax_rows_forward(m: usize, n: usize, x: &[f32], out: &mut [f32]) {
    assert!(n > 0, "softmax over zero-width rows");
    debug_assert_eq!(x.len(), m * n);
    debug_assert_eq!(out.len(), m * n);
    for r in 0..m {
        let row = &x[r * n..(r + 1) * n];
        let orow = &mut out[r * n..(r + 1) * n];
        // `f32::max` ignores NaN, so `max` ranges over the non-NaN
        // elements; a NaN element still poisons the sum below.
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let has_nan = row.iter().any(|v| v.is_nan());
        if max == f32::NEG_INFINITY && !has_nan {
            // All -inf: defined uniform fallback.
            let u = 1.0 / n as f32;
            orow.iter_mut().for_each(|o| *o = u);
            continue;
        }
        let mut total = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(row) {
            let e = fast_exp(v - max);
            *o = e;
            total += e;
        }
        let inv = 1.0 / total;
        orow.iter_mut().for_each(|o| *o *= inv);
    }
}

/// Softmax backward: `gx[r][j] += y[r][j] * (g[r][j] - Σ_j y·g)`. The
/// uniform-fallback rows of [`softmax_rows_forward`] go through the same
/// Jacobian (their true gradient w.r.t. an all-`-inf` input is zero in
/// every direction that matters; the formula stays finite).
pub fn softmax_rows_backward(m: usize, n: usize, y: &[f32], g: &[f32], gx: &mut [f32]) {
    debug_assert_eq!(y.len(), m * n);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(gx.len(), m * n);
    for r in 0..m {
        let yr = &y[r * n..(r + 1) * n];
        let gr = &g[r * n..(r + 1) * n];
        let dot: f32 = yr.iter().zip(gr).map(|(&s, &gv)| s * gv).sum();
        let gxr = &mut gx[r * n..(r + 1) * n];
        for ((gxv, &s), &gv) in gxr.iter_mut().zip(yr).zip(gr) {
            *gxv += s * (gv - dot);
        }
    }
}

// --------------------------------------------------------- fused batchnorm

/// Fused training-mode batch-norm forward over `m` rows × `n` features:
/// `y = γ·x̂ + β` with `x̂ = (x - μ)·rsqrt(σ² + eps)` from batch
/// statistics. `aux` must be `m·n + 3n` long and receives
/// `[x̂ | inv_std | mean | var]` for the backward pass and running-stat
/// updates.
#[allow(clippy::too_many_arguments)]
pub fn batchnorm_train_forward(
    m: usize,
    n: usize,
    eps: f32,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
    aux: &mut [f32],
) {
    debug_assert_eq!(x.len(), m * n);
    debug_assert_eq!(y.len(), m * n);
    debug_assert_eq!(aux.len(), m * n + 3 * n);
    debug_assert!(m > 0);
    let (xhat, rest) = aux.split_at_mut(m * n);
    let (inv_std, rest) = rest.split_at_mut(n);
    let (mean, var) = rest.split_at_mut(n);
    mean.iter_mut().for_each(|v| *v = 0.0);
    for row in x.chunks_exact(n) {
        for (mv, &v) in mean.iter_mut().zip(row) {
            *mv += v;
        }
    }
    let inv_m = 1.0 / m as f32;
    mean.iter_mut().for_each(|v| *v *= inv_m);
    var.iter_mut().for_each(|v| *v = 0.0);
    for row in x.chunks_exact(n) {
        for ((vv, &v), &mu) in var.iter_mut().zip(row).zip(&*mean) {
            let d = v - mu;
            *vv += d * d;
        }
    }
    var.iter_mut().for_each(|v| *v *= inv_m);
    for (is, &v) in inv_std.iter_mut().zip(&*var) {
        *is = 1.0 / (v + eps).sqrt();
    }
    for r in 0..m {
        let xr = &x[r * n..(r + 1) * n];
        let xhr = &mut xhat[r * n..(r + 1) * n];
        let yr = &mut y[r * n..(r + 1) * n];
        for j in 0..n {
            let xh = (xr[j] - mean[j]) * inv_std[j];
            xhr[j] = xh;
            yr[j] = gamma[j] * xh + beta[j];
        }
    }
}

/// Fused training-mode batch-norm backward (gradients flow through the
/// batch statistics):
/// `dx = γ·inv_std/m · (m·g − Σ_i g − x̂·Σ_i g·x̂)`,
/// `dγ += Σ_i g·x̂`, `dβ += Σ_i g`. `aux` is the buffer written by
/// [`batchnorm_train_forward`].
#[allow(clippy::too_many_arguments)]
pub fn batchnorm_train_backward(
    m: usize,
    n: usize,
    aux: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    debug_assert_eq!(aux.len(), m * n + 3 * n);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(dx.len(), m * n);
    let (xhat, rest) = aux.split_at(m * n);
    let (inv_std, _) = rest.split_at(n);
    let mut sum_g = vec![0.0f32; n];
    let mut sum_gx = vec![0.0f32; n];
    for r in 0..m {
        let gr = &g[r * n..(r + 1) * n];
        let xhr = &xhat[r * n..(r + 1) * n];
        for j in 0..n {
            sum_g[j] += gr[j];
            sum_gx[j] += gr[j] * xhr[j];
        }
    }
    for (d, &s) in dbeta.iter_mut().zip(&sum_g) {
        *d += s;
    }
    for (d, &s) in dgamma.iter_mut().zip(&sum_gx) {
        *d += s;
    }
    let fm = m as f32;
    for r in 0..m {
        let gr = &g[r * n..(r + 1) * n];
        let xhr = &xhat[r * n..(r + 1) * n];
        let dxr = &mut dx[r * n..(r + 1) * n];
        for j in 0..n {
            let scale = gamma[j] * inv_std[j] / fm;
            dxr[j] += scale * (fm * gr[j] - sum_g[j] - xhr[j] * sum_gx[j]);
        }
    }
}

/// Fused eval-mode batch-norm forward: whiten with the fixed running
/// statistics (`aux = [mean | inv_std]`, each `n` long) and apply the
/// affine parameters in one pass.
#[allow(clippy::too_many_arguments)]
pub fn batchnorm_eval_forward(
    m: usize,
    n: usize,
    x: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
) {
    debug_assert_eq!(x.len(), m * n);
    debug_assert_eq!(y.len(), m * n);
    for r in 0..m {
        let xr = &x[r * n..(r + 1) * n];
        let yr = &mut y[r * n..(r + 1) * n];
        for j in 0..n {
            yr[j] = gamma[j] * (xr[j] - mean[j]) * inv_std[j] + beta[j];
        }
    }
}

/// Fused eval-mode batch-norm backward: running statistics are constants,
/// so `dx += g·γ·inv_std`, `dγ += Σ g·x̂`, `dβ += Σ g`.
#[allow(clippy::too_many_arguments)]
pub fn batchnorm_eval_backward(
    m: usize,
    n: usize,
    x: &[f32],
    mean: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    debug_assert_eq!(x.len(), m * n);
    debug_assert_eq!(g.len(), m * n);
    debug_assert_eq!(dx.len(), m * n);
    for r in 0..m {
        let xr = &x[r * n..(r + 1) * n];
        let gr = &g[r * n..(r + 1) * n];
        let dxr = &mut dx[r * n..(r + 1) * n];
        for j in 0..n {
            let xh = (xr[j] - mean[j]) * inv_std[j];
            dxr[j] += gr[j] * gamma[j] * inv_std[j];
            dgamma[j] += gr[j] * xh;
            dbeta[j] += gr[j];
        }
    }
}

// ------------------------------------------------ fused temporal attention

/// Time2Vec / TimeKernel forward (TGAT-style functional time encoding):
/// from the frequency preactivation `pre = t·w + b` (`m × k`) produce
/// `out = [sin(pre) | cos(pre)] / √(1/k)` (`m × 2k`). The `√(1/k)`
/// normalizer follows the TGAT reference so the encoding's scale is
/// independent of the frequency count. Element-wise, so thread count and
/// partitioning cannot affect results; NaN propagates through `sin`/`cos`.
pub fn time2vec_forward(m: usize, k: usize, pre: &[f32], out: &mut [f32]) {
    debug_assert_eq!(pre.len(), m * k);
    debug_assert_eq!(out.len(), m * 2 * k);
    let scale = (k as f32).sqrt(); // 1 / sqrt(1/k)
    for r in 0..m {
        let pr = &pre[r * k..(r + 1) * k];
        let or = &mut out[r * 2 * k..(r + 1) * 2 * k];
        let (s, c) = or.split_at_mut(k);
        for j in 0..k {
            let (sn, cs) = pr[j].sin_cos();
            s[j] = sn * scale;
            c[j] = cs * scale;
        }
    }
}

/// Time2Vec backward: with `g` the upstream gradient of the `[sin|cos]`
/// output, `d_pre[r][j] += (g_sin·cos(pre) − g_cos·sin(pre)) / √(1/k)`.
pub fn time2vec_backward(m: usize, k: usize, pre: &[f32], g: &[f32], d_pre: &mut [f32]) {
    debug_assert_eq!(pre.len(), m * k);
    debug_assert_eq!(g.len(), m * 2 * k);
    debug_assert_eq!(d_pre.len(), m * k);
    let scale = (k as f32).sqrt();
    for r in 0..m {
        let pr = &pre[r * k..(r + 1) * k];
        let gr = &g[r * 2 * k..(r + 1) * 2 * k];
        let dr = &mut d_pre[r * k..(r + 1) * k];
        let (gs, gc) = gr.split_at(k);
        for j in 0..k {
            let (sn, cs) = pr[j].sin_cos();
            dr[j] += (gs[j] * cs - gc[j] * sn) * scale;
        }
    }
}

/// Minimum `units · lmax · (d + tk)` before the attention kernels fan out to
/// worker threads (each unit is tiny; only batches of them pay for a
/// thread spawn).
const ATTN_PAR_FLOOR: usize = 1 << 14;

/// How many contiguous units each attention worker gets at minimum.
const ATTN_MIN_UNITS: usize = 8;

/// Aux row width per unit saved by [`temporal_attention_forward`]:
/// attention weights `α [H·L]`, factored queries `q̃ [H·d]` / `q̂ [H·tk]`,
/// and attention-weighted input sums `x̄ [H·d]` / `t̄ [H·tk]`. The slab's
/// internal arrangement (which pieces are unit-major vs head-major) is
/// private to the forward/backward kernel pair.
#[inline]
pub fn temporal_attention_aux(lmax: usize, d: usize, tk: usize, heads: usize) -> usize {
    heads * (lmax + 2 * (d + tk))
}

/// Fused factored temporal attention: multi-head attention whose keys and
/// values are **implicit** linear blends `K = x·wk + tv·kt`,
/// `V = x·wv + tv·vt` that are never materialized per slot. The score of
/// head `h` against slot `s` factors through the query instead:
///
/// ```text
/// s_{h,s} = (q_h·Wk_hᵀ)·x_s + (q_h·Kt_hᵀ)·tv_s    (· 1/√dh)
/// out_h   = x̄_h·Wv_h + t̄_h·Vt_h,   x̄_h = Σ_s α_s·x_s, t̄_h = Σ_s α_s·tv_s
/// ```
///
/// where `Wk_h = wk[:, h·dh..(h+1)·dh]` etc. This keeps every projection
/// at `[units, ·]` scale: the `[units·lmax, ·]` inputs are only read in
/// streaming dot-product/weighted-sum passes, never pushed through a
/// GEMM, which is what makes attention cheaper than the recurrent
/// aggregator at long walk lengths.
///
/// The kernel is a hybrid: the dense per-head projections (factored
/// queries in, output mix out) run as `[units, ·]` GEMMs through
/// [`gemm_acc`], and only the ragged part — scores over each unit's live
/// prefix, masked softmax, weighted input sums — runs per unit. Both
/// halves are bit-identical at any thread count: the GEMMs by their
/// fixed per-element reduction chains, the ragged loop because units own
/// disjoint rows.
///
/// Layout: `q` is `units × d`; `x` (`units·lmax × d`) and `tv`
/// (`units·lmax × tk`) are unit-major; `wk`/`wv` are `d × d` and
/// `kt`/`vt` are `tk × d` (row-major, as in `K = x·wk + tv·kt`);
/// `lens[u] ∈ [1, lmax]` is each unit's live prefix — slots at or past it
/// get exactly zero attention weight and zero gradient, and are never
/// read, so whatever fills them (even NaN or ±inf) cannot reach the
/// output or any gradient. `aux` is `units × temporal_attention_aux(..)`,
/// unit-major.
///
/// Softmax contract, per unit and head over the live prefix: stable
/// (max-subtracted) with [`fast_exp`]; a degenerate prefix whose scores
/// are all `-inf` gets the uniform distribution `1/len` instead of
/// `0/0 = NaN`; a NaN score turns every weight of that (unit, head) NaN,
/// and with them that unit's head-`h` output columns — never another
/// unit's output (a NaN in a live input row reaches every head's scores,
/// so the whole unit's output row).
///
/// Units are independent (disjoint output/aux rows, shared inputs only
/// read), so the worker partition over units cannot change results:
/// bit-identical at any thread count.
#[allow(clippy::too_many_arguments)]
pub fn temporal_attention_forward(
    units: usize,
    lmax: usize,
    d: usize,
    tk: usize,
    heads: usize,
    lens: &[u32],
    q: &[f32],
    x: &[f32],
    tv: &[f32],
    wk: &[f32],
    kt: &[f32],
    wv: &[f32],
    vt: &[f32],
    out: &mut [f32],
    aux: &mut [f32],
) {
    let aux_w = temporal_attention_aux(lmax, d, tk, heads);
    debug_assert_eq!(lens.len(), units);
    debug_assert_eq!(q.len(), units * d);
    debug_assert_eq!(x.len(), units * lmax * d);
    debug_assert_eq!(tv.len(), units * lmax * tk);
    debug_assert_eq!(wk.len(), d * d);
    debug_assert_eq!(kt.len(), tk * d);
    debug_assert_eq!(wv.len(), d * d);
    debug_assert_eq!(vt.len(), tk * d);
    debug_assert_eq!(out.len(), units * d);
    debug_assert_eq!(aux.len(), units * aux_w);
    assert!(heads > 0 && d % heads == 0, "head count must divide width");
    let dh = d / heads;
    let inv_sqrt = 1.0 / (dh as f32).sqrt();
    // Head-packed queries `[H][units, dh]`: the shared A operand of every
    // per-head projection GEMM.
    let mut q_hm = vec![0.0f32; units * d];
    for h in 0..heads {
        let dst = &mut q_hm[h * units * dh..(h + 1) * units * dh];
        for u in 0..units {
            dst[u * dh..(u + 1) * dh].copy_from_slice(&q[u * d + h * dh..u * d + (h + 1) * dh]);
        }
    }
    // Transposed key projections: rows `h·dh..(h+1)·dh` are head `h`'s
    // contiguous B operand.
    let wk_t = transpose(wk, d, d);
    let kt_t = transpose(kt, tk, d);
    // Aux arenas: α and the weighted sums are unit-major (ragged-loop
    // workers own contiguous row ranges), the factored queries head-major
    // (written directly by the GEMMs below).
    let (alpha_all, rest) = aux.split_at_mut(units * heads * lmax);
    let (qt_arena, rest) = rest.split_at_mut(heads * units * d);
    let (qh_arena, rest) = rest.split_at_mut(heads * units * tk);
    let (xb_all, tb_all) = rest.split_at_mut(units * heads * d);
    qt_arena.fill(0.0);
    qh_arena.fill(0.0);
    for h in 0..heads {
        let qa = &q_hm[h * units * dh..(h + 1) * units * dh];
        gemm_acc(
            units,
            dh,
            d,
            qa,
            &wk_t[h * dh * d..(h + 1) * dh * d],
            &mut qt_arena[h * units * d..(h + 1) * units * d],
        );
        gemm_acc(
            units,
            dh,
            tk,
            qa,
            &kt_t[h * dh * tk..(h + 1) * dh * tk],
            &mut qh_arena[h * units * tk..(h + 1) * units * tk],
        );
    }
    let (qt_arena, qh_arena): (&[f32], &[f32]) = (qt_arena, qh_arena);
    // Ragged half: per-unit scores over the live prefix, masked softmax,
    // weighted input sums.
    let run =
        |u0: usize, nu: usize, alpha_part: &mut [f32], xb_part: &mut [f32], tb_part: &mut [f32]| {
            for i in 0..nu {
                let u = u0 + i;
                let len = lens[u] as usize;
                assert!(len >= 1 && len <= lmax, "unit prefix {len} outside [1, {lmax}]");
                for h in 0..heads {
                    let qt = &qt_arena[h * units * d + u * d..h * units * d + (u + 1) * d];
                    let qhat = &qh_arena[h * units * tk + u * tk..h * units * tk + (u + 1) * tk];
                    let ar = &mut alpha_part[(i * heads + h) * lmax..(i * heads + h + 1) * lmax];
                    ar[len..].iter_mut().for_each(|a| *a = 0.0);
                    for (t, a) in ar[..len].iter_mut().enumerate() {
                        let xr = &x[(u * lmax + t) * d..(u * lmax + t + 1) * d];
                        let tr = &tv[(u * lmax + t) * tk..(u * lmax + t + 1) * tk];
                        *a = (dot8(qt, xr) + dot8(qhat, tr)) * inv_sqrt;
                    }
                    // Stable softmax over the prefix, in place (the
                    // degenerate/NaN contract in the doc above).
                    let max = ar[..len].iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let has_nan = ar[..len].iter().any(|a| a.is_nan());
                    if max == f32::NEG_INFINITY && !has_nan {
                        let uw = 1.0 / len as f32;
                        ar[..len].iter_mut().for_each(|a| *a = uw);
                    } else {
                        let mut total = 0.0f32;
                        for a in ar[..len].iter_mut() {
                            let e = fast_exp(*a - max);
                            *a = e;
                            total += e;
                        }
                        let inv = 1.0 / total;
                        ar[..len].iter_mut().for_each(|a| *a *= inv);
                    }
                    let xb = &mut xb_part[(i * heads + h) * d..(i * heads + h + 1) * d];
                    xb.iter_mut().for_each(|o| *o = 0.0);
                    let tb = &mut tb_part[(i * heads + h) * tk..(i * heads + h + 1) * tk];
                    tb.iter_mut().for_each(|o| *o = 0.0);
                    for (t, &a) in ar[..len].iter().enumerate() {
                        let xr = &x[(u * lmax + t) * d..(u * lmax + t + 1) * d];
                        for (o, &xv) in xb.iter_mut().zip(xr) {
                            *o = a.mul_add(xv, *o);
                        }
                        let tr = &tv[(u * lmax + t) * tk..(u * lmax + t + 1) * tk];
                        for (o, &tvv) in tb.iter_mut().zip(tr) {
                            *o = a.mul_add(tvv, *o);
                        }
                    }
                }
            }
        };
    let t = threads();
    let parts = if t <= 1 || units * lmax * (d + tk) < ATTN_PAR_FLOOR {
        1
    } else {
        t.min(units / ATTN_MIN_UNITS).max(1)
    };
    if parts <= 1 {
        run(0, units, &mut *alpha_all, &mut *xb_all, &mut *tb_all);
    } else {
        let base = units / parts;
        let extra = units % parts;
        std::thread::scope(|s| {
            let mut alpha_rest = &mut *alpha_all;
            let mut xb_rest = &mut *xb_all;
            let mut tb_rest = &mut *tb_all;
            let mut u0 = 0usize;
            let mut handles = Vec::with_capacity(parts);
            for p in 0..parts {
                let nu = base + usize::from(p < extra);
                let (ap, atail) = alpha_rest.split_at_mut(nu * heads * lmax);
                alpha_rest = atail;
                let (xp, xtail) = xb_rest.split_at_mut(nu * heads * d);
                xb_rest = xtail;
                let (tp, ttail) = tb_rest.split_at_mut(nu * heads * tk);
                tb_rest = ttail;
                let start = u0;
                u0 += nu;
                let fr = &run;
                handles.push(s.spawn(move || fr(start, nu, ap, xp, tp)));
            }
            for h in handles {
                h.join().expect("kernel worker panicked");
            }
        });
    }
    // Dense half, output side: `out[:, blk_h] = x̄_h·Wv_h + t̄_h·Vt_h` as
    // two GEMMs per head into a `[units, dh]` strip.
    let mut xb_pack = vec![0.0f32; units * d];
    let mut tb_pack = vec![0.0f32; units * tk];
    let mut w_blk = vec![0.0f32; d * dh];
    let mut v_blk = vec![0.0f32; tk * dh];
    let mut strip = vec![0.0f32; units * dh];
    for h in 0..heads {
        for u in 0..units {
            xb_pack[u * d..(u + 1) * d]
                .copy_from_slice(&xb_all[(u * heads + h) * d..(u * heads + h + 1) * d]);
            tb_pack[u * tk..(u + 1) * tk]
                .copy_from_slice(&tb_all[(u * heads + h) * tk..(u * heads + h + 1) * tk]);
        }
        for i2 in 0..d {
            w_blk[i2 * dh..(i2 + 1) * dh]
                .copy_from_slice(&wv[i2 * d + h * dh..i2 * d + (h + 1) * dh]);
        }
        for b in 0..tk {
            v_blk[b * dh..(b + 1) * dh].copy_from_slice(&vt[b * d + h * dh..b * d + (h + 1) * dh]);
        }
        strip.fill(0.0);
        gemm_acc(units, d, dh, &xb_pack, &w_blk, &mut strip);
        gemm_acc(units, tk, dh, &tb_pack, &v_blk, &mut strip);
        for u in 0..units {
            out[u * d + h * dh..u * d + (h + 1) * dh].copy_from_slice(&strip[u * dh..(u + 1) * dh]);
        }
    }
}

/// Fixed-order 8-lane dot product: lane `l` accumulates elements
/// `l, l+8, l+16, …`, lanes reduce in a fixed pairwise tree, then the
/// scalar tail. The order never depends on thread count or call site, so
/// results are deterministic — while the 8 independent accumulator
/// chains let the compiler vectorize what a plain `fold` (one serial FMA
/// chain) cannot.
#[inline]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for l in 0..8 {
            acc[l] = xa[l].mul_add(xb[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&xa, &xb) in ra.iter().zip(rb) {
        tail = xa.mul_add(xb, tail);
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Row-major transpose: `a` is `[r, c]`, returns `[c, r]`.
fn transpose(a: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            t[j * r + i] = a[i * c + j];
        }
    }
    t
}

/// Backward of [`temporal_attention_forward`]. `aux` is the forward's
/// saved per-unit state; `g_out` the upstream gradient of the
/// concatenated head outputs; `scratch` must hold
/// `units · heads·(d + tk)` elements (overwritten). Accumulates (`+=`)
/// into `dq` (`units × d`), `dx`/`dtv` (`units·lmax × ·`), and the four
/// weight gradients.
///
/// Hybrid like the forward, in three stages that each keep the
/// thread-count bit-identity contract: (1) the value-path pullback
/// `d̃/d̂ = g·Wv_hᵀ / g·Vt_hᵀ` as per-head [`gemm_acc`] GEMMs; (2) the
/// ragged per-unit phase (parallel, unit-local writes only) — softmax
/// Jacobian, `dq̃`/`dq̂` factors into `scratch`, and the `dx`/`dtv` rows;
/// (3) `dq` and the four shared weight gradients as per-head
/// [`gemm_acc`]/[`gemm_tn_acc`] GEMMs over the unit axis, whose fixed
/// chunked reduction orders never depend on the worker partition.
#[allow(clippy::too_many_arguments)]
pub fn temporal_attention_backward(
    units: usize,
    lmax: usize,
    d: usize,
    tk: usize,
    heads: usize,
    lens: &[u32],
    q: &[f32],
    x: &[f32],
    tv: &[f32],
    wk: &[f32],
    kt: &[f32],
    wv: &[f32],
    vt: &[f32],
    aux: &[f32],
    g_out: &[f32],
    scratch: &mut [f32],
    dq: &mut [f32],
    dx: &mut [f32],
    dtv: &mut [f32],
    dwk: &mut [f32],
    dkt: &mut [f32],
    dwv: &mut [f32],
    dvt: &mut [f32],
) {
    let aux_w = temporal_attention_aux(lmax, d, tk, heads);
    let sw = heads * (d + tk);
    debug_assert_eq!(aux.len(), units * aux_w);
    debug_assert_eq!(g_out.len(), units * d);
    debug_assert_eq!(scratch.len(), units * sw);
    debug_assert_eq!(dq.len(), units * d);
    debug_assert_eq!(dx.len(), units * lmax * d);
    debug_assert_eq!(dtv.len(), units * lmax * tk);
    let dh = d / heads;
    let inv_sqrt = 1.0 / (dh as f32).sqrt();
    // Aux arenas, mirroring the forward's layout.
    let (alpha_all, rest) = aux.split_at(units * heads * lmax);
    let (qt_arena, rest) = rest.split_at(heads * units * d);
    let (qh_arena, rest) = rest.split_at(heads * units * tk);
    let (xb_all, tb_all) = rest.split_at(units * heads * d);
    // Head-packed q and g_out: A operands of the dense stages.
    let mut q_hm = vec![0.0f32; units * d];
    let mut g_hm = vec![0.0f32; units * d];
    for h in 0..heads {
        let dst = &mut q_hm[h * units * dh..(h + 1) * units * dh];
        for u in 0..units {
            dst[u * dh..(u + 1) * dh].copy_from_slice(&q[u * d + h * dh..u * d + (h + 1) * dh]);
        }
        let dst = &mut g_hm[h * units * dh..(h + 1) * units * dh];
        for u in 0..units {
            dst[u * dh..(u + 1) * dh].copy_from_slice(&g_out[u * d + h * dh..u * d + (h + 1) * dh]);
        }
    }
    // Stage 1 — value-path pullback per head as GEMMs:
    // d̃ = g_h·Wv_hᵀ (units × d), d̂ = g_h·Vt_hᵀ (units × tk).
    let wv_t = transpose(wv, d, d);
    let vt_t = transpose(vt, tk, d);
    let mut dtil_arena = vec![0.0f32; heads * units * d];
    let mut dhat_arena = vec![0.0f32; heads * units * tk];
    for h in 0..heads {
        let ga = &g_hm[h * units * dh..(h + 1) * units * dh];
        gemm_acc(
            units,
            dh,
            d,
            ga,
            &wv_t[h * dh * d..(h + 1) * dh * d],
            &mut dtil_arena[h * units * d..(h + 1) * units * d],
        );
        gemm_acc(
            units,
            dh,
            tk,
            ga,
            &vt_t[h * dh * tk..(h + 1) * dh * tk],
            &mut dhat_arena[h * units * tk..(h + 1) * units * tk],
        );
    }
    let (dtil_arena, dhat_arena): (&[f32], &[f32]) = (&dtil_arena, &dhat_arena);
    // Stage 2 — ragged per-unit phase: softmax Jacobian, dq̃/dq̂ factors
    // into `scratch`, and the unit-local dx/dtv rows. A single pass over
    // each prefix reads every input row once for both the accumulation
    // and the input-gradient write.
    let run =
        |u0: usize, nu: usize, dx_part: &mut [f32], dtv_part: &mut [f32], scr_part: &mut [f32]| {
            let mut ds = vec![0.0f32; lmax];
            for i in 0..nu {
                let u = u0 + i;
                let len = lens[u] as usize;
                let (dqt_all, dqh_all) = scr_part[i * sw..(i + 1) * sw].split_at_mut(heads * d);
                for h in 0..heads {
                    let ar = &alpha_all[(u * heads + h) * lmax..(u * heads + h) * lmax + len];
                    let dtil = &dtil_arena[h * units * d + u * d..][..d];
                    let dhat = &dhat_arena[h * units * tk + u * tk..][..tk];
                    // dα_t = d̃·x_t + d̂·tv_t, then the softmax Jacobian and
                    // the 1/√dh score scale.
                    for (t, o) in ds[..len].iter_mut().enumerate() {
                        let xr = &x[(u * lmax + t) * d..(u * lmax + t + 1) * d];
                        let tr = &tv[(u * lmax + t) * tk..(u * lmax + t + 1) * tk];
                        *o = dot8(dtil, xr) + dot8(dhat, tr);
                    }
                    let dot: f32 = ar.iter().zip(&ds[..len]).map(|(&a, &da)| a * da).sum();
                    for t in 0..len {
                        ds[t] = ar[t] * (ds[t] - dot) * inv_sqrt;
                    }
                    let qt = &qt_arena[h * units * d + u * d..][..d];
                    let qhat = &qh_arena[h * units * tk + u * tk..][..tk];
                    let dqt = &mut dqt_all[h * d..(h + 1) * d];
                    dqt.iter_mut().for_each(|o| *o = 0.0);
                    let dqh = &mut dqh_all[h * tk..(h + 1) * tk];
                    dqh.iter_mut().for_each(|o| *o = 0.0);
                    // dq̃ += ds_t·x_t and dx_t += ds_t·q̃ + α_t·d̃ fused (tv
                    // likewise): one streaming read per input row.
                    for t in 0..len {
                        let (dst, at) = (ds[t], ar[t]);
                        let xr = &x[(u * lmax + t) * d..(u * lmax + t + 1) * d];
                        let dxr = &mut dx_part[(i * lmax + t) * d..(i * lmax + t + 1) * d];
                        for i2 in 0..d {
                            dqt[i2] = dst.mul_add(xr[i2], dqt[i2]);
                            dxr[i2] = dst.mul_add(qt[i2], at.mul_add(dtil[i2], dxr[i2]));
                        }
                        let tr = &tv[(u * lmax + t) * tk..(u * lmax + t + 1) * tk];
                        let dtr = &mut dtv_part[(i * lmax + t) * tk..(i * lmax + t + 1) * tk];
                        for b in 0..tk {
                            dqh[b] = dst.mul_add(tr[b], dqh[b]);
                            dtr[b] = dst.mul_add(qhat[b], at.mul_add(dhat[b], dtr[b]));
                        }
                    }
                }
            }
        };
    let t = threads();
    let parts = if t <= 1 || units * lmax * (d + tk) < ATTN_PAR_FLOOR {
        1
    } else {
        t.min(units / ATTN_MIN_UNITS).max(1)
    };
    if parts <= 1 {
        run(0, units, &mut *dx, &mut *dtv, &mut *scratch);
    } else {
        let base = units / parts;
        let extra = units % parts;
        std::thread::scope(|s| {
            let mut dx_rest = &mut *dx;
            let mut dtv_rest = &mut *dtv;
            let mut scr_rest = &mut *scratch;
            let mut u0 = 0usize;
            let mut handles = Vec::with_capacity(parts);
            for p in 0..parts {
                let nu = base + usize::from(p < extra);
                let (xp, xtail) = dx_rest.split_at_mut(nu * lmax * d);
                dx_rest = xtail;
                let (tp, ttail) = dtv_rest.split_at_mut(nu * lmax * tk);
                dtv_rest = ttail;
                let (sp, stail) = scr_rest.split_at_mut(nu * sw);
                scr_rest = stail;
                let start = u0;
                u0 += nu;
                let fr = &run;
                handles.push(s.spawn(move || fr(start, nu, xp, tp, sp)));
            }
            for h in handles {
                h.join().expect("kernel worker panicked");
            }
        });
    }
    // Stage 3 — dense pullbacks per head. dq[:, blk] = dq̃·Wk_h + dq̂·Kt_h;
    // the four weight-gradient column blocks are TN GEMMs over the unit
    // axis (their fixed chunked reduction keeps the sum independent of
    // the stage-2 worker partition).
    let mut dqt_pack = vec![0.0f32; units * d];
    let mut dqh_pack = vec![0.0f32; units * tk];
    let mut xb_pack = vec![0.0f32; units * d];
    let mut tb_pack = vec![0.0f32; units * tk];
    let mut wk_blk = vec![0.0f32; d * dh];
    let mut kt_blk = vec![0.0f32; tk * dh];
    let mut strip = vec![0.0f32; units * dh];
    let mut blk_d = vec![0.0f32; d * dh];
    let mut blk_t = vec![0.0f32; tk * dh];
    for h in 0..heads {
        for u in 0..units {
            let r = &scratch[u * sw..(u + 1) * sw];
            dqt_pack[u * d..(u + 1) * d].copy_from_slice(&r[h * d..(h + 1) * d]);
            dqh_pack[u * tk..(u + 1) * tk]
                .copy_from_slice(&r[heads * d + h * tk..heads * d + (h + 1) * tk]);
            xb_pack[u * d..(u + 1) * d]
                .copy_from_slice(&xb_all[(u * heads + h) * d..(u * heads + h + 1) * d]);
            tb_pack[u * tk..(u + 1) * tk]
                .copy_from_slice(&tb_all[(u * heads + h) * tk..(u * heads + h + 1) * tk]);
        }
        for i2 in 0..d {
            wk_blk[i2 * dh..(i2 + 1) * dh]
                .copy_from_slice(&wk[i2 * d + h * dh..i2 * d + (h + 1) * dh]);
        }
        for b in 0..tk {
            kt_blk[b * dh..(b + 1) * dh].copy_from_slice(&kt[b * d + h * dh..b * d + (h + 1) * dh]);
        }
        strip.fill(0.0);
        gemm_acc(units, d, dh, &dqt_pack, &wk_blk, &mut strip);
        gemm_acc(units, tk, dh, &dqh_pack, &kt_blk, &mut strip);
        for u in 0..units {
            for (o, &sv) in dq[u * d + h * dh..u * d + (h + 1) * dh]
                .iter_mut()
                .zip(&strip[u * dh..(u + 1) * dh])
            {
                *o += sv;
            }
        }
        let qa = &q_hm[h * units * dh..(h + 1) * units * dh];
        let ga = &g_hm[h * units * dh..(h + 1) * units * dh];
        blk_d.fill(0.0);
        gemm_tn_acc(d, units, dh, &dqt_pack, qa, &mut blk_d);
        for i2 in 0..d {
            for (o, &sv) in dwk[i2 * d + h * dh..i2 * d + (h + 1) * dh]
                .iter_mut()
                .zip(&blk_d[i2 * dh..(i2 + 1) * dh])
            {
                *o += sv;
            }
        }
        blk_d.fill(0.0);
        gemm_tn_acc(d, units, dh, &xb_pack, ga, &mut blk_d);
        for i2 in 0..d {
            for (o, &sv) in dwv[i2 * d + h * dh..i2 * d + (h + 1) * dh]
                .iter_mut()
                .zip(&blk_d[i2 * dh..(i2 + 1) * dh])
            {
                *o += sv;
            }
        }
        blk_t.fill(0.0);
        gemm_tn_acc(tk, units, dh, &dqh_pack, qa, &mut blk_t);
        for b in 0..tk {
            for (o, &sv) in dkt[b * d + h * dh..b * d + (h + 1) * dh]
                .iter_mut()
                .zip(&blk_t[b * dh..(b + 1) * dh])
            {
                *o += sv;
            }
        }
        blk_t.fill(0.0);
        gemm_tn_acc(tk, units, dh, &tb_pack, ga, &mut blk_t);
        for b in 0..tk {
            for (o, &sv) in dvt[b * d + h * dh..b * d + (h + 1) * dh]
                .iter_mut()
                .zip(&blk_t[b * dh..(b + 1) * dh])
            {
                *o += sv;
            }
        }
    }
}

/// Serializes tests that toggle the global thread budget. Shared across
/// every in-crate test module so concurrent tests never observe a
/// half-toggled [`set_threads`] value.
#[cfg(test)]
pub(crate) static TEST_THREAD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    use super::TEST_THREAD_LOCK as THREAD_LOCK;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; x.len()];
        for i in 0..rows {
            for j in 0..cols {
                t[j * rows + i] = x[i * cols + j];
            }
        }
        t
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.3 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.1 + 0.5).collect();
        let expect = naive(m, k, n, &a, &b);
        let mut c = vec![0.0; m * n];
        gemm_acc(m, k, n, &a, &b, &mut c);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_matches_naive_odd_shapes() {
        // Shapes straddling every tile boundary, including the packed path.
        for &(m, k, n) in &[(1, 1, 1), (5, 3, 17), (4, 16, 16), (7, 33, 19), (9, 40, 64)] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 31 % 17) as f32) * 0.21 - 1.5).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 13 % 23) as f32) * 0.17 - 1.9).collect();
            let expect = naive(m, k, n, &a, &b);
            let mut c = vec![0.0; m * n];
            gemm_acc(m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&expect) {
                assert!((x - y).abs() < 1e-3, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let (m, k, n) = (3, 4, 2);
        let at: Vec<f32> = (0..k * m).map(|i| i as f32 * 0.2).collect(); // stored k×m
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 * -0.1 + 1.0).collect();
        let a = transpose(k, m, &at); // m×k
        let expect = naive(m, k, n, &a, &b);
        let mut c = vec![0.0; m * n];
        gemm_tn_acc(m, k, n, &at, &b, &mut c);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_tn_chunked_matches_naive() {
        // k far beyond TN_CHUNK exercises the chunk + tree-reduce path.
        let (m, k, n) = (3, 2 * TN_CHUNK + 37, 5);
        let at: Vec<f32> = (0..k * m).map(|i| ((i % 29) as f32) * 0.11 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 31) as f32) * 0.07 - 0.9).collect();
        let a = transpose(k, m, &at);
        let expect = naive(m, k, n, &a, &b);
        let mut c = vec![0.0; m * n];
        gemm_tn_acc(m, k, n, &at, &b, &mut c);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let (m, k, n) = (2, 3, 4);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.4 - 0.6).collect();
        let bt: Vec<f32> = (0..n * k).map(|i| i as f32 * 0.15).collect(); // stored n×k
        let b = transpose(n, k, &bt); // k×n
        let expect = naive(m, k, n, &a, &b);
        let mut c = vec![0.0; m * n];
        gemm_nt_acc(m, k, n, &a, &bt, &mut c);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn accumulation_adds_to_existing() {
        let mut c = vec![10.0; 1];
        gemm_acc(1, 1, 1, &[2.0], &[3.0], &mut c);
        assert_eq!(c[0], 16.0);
    }

    #[test]
    fn fma_accumulates() {
        let mut out = vec![1.0, 1.0];
        fma_acc(&[2.0, 3.0], &[4.0, 5.0], &mut out);
        assert_eq!(out, vec![9.0, 16.0]);
    }

    // ------------------------------------------------- NaN regression
    // The old kernels skipped `a == 0.0` elements, so a NaN flowing
    // through a zero activation was silently swallowed. These must fail
    // against the old kernels.

    #[test]
    fn nan_in_b_propagates_through_zero_row_of_a() {
        // a's row is all zeros; b carries a NaN. 0 · NaN = NaN.
        let a = vec![0.0f32; 3];
        let b = vec![1.0, f32::NAN, 2.0];
        let mut c = vec![0.0f32; 3];
        gemm_acc(1, 3, 3, &a, &[b.clone(), vec![0.0; 3], vec![0.0; 3]].concat(), &mut c);
        // Row 0 of b is hit by a[0][0] = 0.0: NaN must reach c.
        assert!(c[1].is_nan(), "gemm_acc swallowed 0·NaN: {c:?}");
    }

    #[test]
    fn nan_in_b_propagates_through_zero_a_tn() {
        // gemm_tn_acc: a stored k×m, all zeros; NaN in b must poison c.
        let a = vec![0.0f32; 2 * 2]; // k=2, m=2
        let b = vec![f32::NAN, 1.0, 0.5, -0.5]; // k=2, n=2
        let mut c = vec![0.0f32; 4];
        gemm_tn_acc(2, 2, 2, &a, &b, &mut c);
        assert!(c[0].is_nan(), "gemm_tn_acc swallowed 0·NaN: {c:?}");
    }

    #[test]
    fn inf_times_zero_is_nan_everywhere() {
        let a = vec![0.0f32, 1.0];
        let b = vec![f32::INFINITY, 2.0];
        let mut c = vec![0.0f32; 1];
        gemm_acc(1, 2, 1, &a, &b, &mut c);
        assert!(c[0].is_nan(), "0·inf must be NaN, got {}", c[0]);
    }

    // ------------------------------------------------- determinism

    #[test]
    fn thread_count_never_changes_bits() {
        let _guard = THREAD_LOCK.lock().unwrap();
        let (m, k, n) = (37, 3 * TN_CHUNK + 11, 29);
        let a: Vec<f32> =
            (0..m * k).map(|i| ((i * 2654435761 % 1000) as f32) * 1e-3 - 0.5).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 40503 % 997) as f32) * 1e-3 - 0.4).collect();
        let at = transpose(m, k, &a);
        let run = |t: usize| {
            set_threads(t);
            let mut c1 = vec![0.1f32; m * n];
            gemm_acc(m, k, n, &a, &b, &mut c1);
            // gemm_nt wants b stored n×k; `a` (m×k) doubles as an n=m operand.
            let mut cnt = vec![0.2f32; m * m];
            gemm_nt_acc(m, k, m, &a, &a, &mut cnt);
            let mut c3 = vec![0.3f32; m * n];
            gemm_tn_acc(m, k, n, &at, &b, &mut c3);
            set_threads(1);
            (bits(&c1), bits(&cnt), bits(&c3))
        };
        let single = run(1);
        for t in [2, 4, 7] {
            assert_eq!(single, run(t), "thread count {t} changed results");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    // ------------------------------------------------- fused ops

    #[test]
    fn fast_transcendentals_accurate_and_nan_safe() {
        for i in -800..=800 {
            let x = i as f32 * 0.01;
            let e = fast_exp(x);
            let r = x.exp();
            assert!((e - r).abs() <= 1e-4 * r.max(1e-6), "exp({x}): {e} vs {r}");
            let s = fast_sigmoid(x);
            let sr = 1.0 / (1.0 + (-x).exp());
            assert!((s - sr).abs() < 1e-5, "sigmoid({x}): {s} vs {sr}");
            let t = fast_tanh(x);
            let tr = x.tanh();
            assert!((t - tr).abs() < 2e-5, "tanh({x}): {t} vs {tr}");
            assert!(t > -1.0 && t < 1.0);
            assert!(s > 0.0 && s < 1.0);
        }
        assert!(fast_exp(f32::NAN).is_nan());
        assert!(fast_sigmoid(f32::NAN).is_nan());
        assert!(fast_tanh(f32::NAN).is_nan());
        assert!((fast_sigmoid(f32::INFINITY) - 1.0).abs() < 1e-6);
        assert!(fast_sigmoid(f32::NEG_INFINITY) < 1e-30);
        assert!((fast_tanh(f32::INFINITY) - 1.0).abs() < 1e-6);
        assert!((fast_tanh(f32::NEG_INFINITY) + 1.0).abs() < 1e-6);
        assert!(fast_exp(100.0).is_finite(), "fast_exp saturates, never overflows");
    }

    /// The `fast_exp` scale as first written: a saturating `as i32` cast
    /// of the floored exponent (NaN casts to 0). Kept as the oracle for
    /// the bit-trick version.
    fn fast_exp_cast_scale(x: f32) -> f32 {
        let z = (x * LOG2_E).clamp(-126.0, 126.0);
        let zf = z.floor();
        let f = z - zf;
        let p = f.mul_add(
            f.mul_add(
                f.mul_add(
                    f.mul_add(
                        f.mul_add(f.mul_add(1.540_353e-4, 0.001_333_355_8), 0.009_618_129),
                        0.055_504_11,
                    ),
                    0.240_226_5,
                ),
                std::f32::consts::LN_2,
            ),
            1.0,
        );
        p * f32::from_bits((((zf as i32) + 127) << 23) as u32)
    }

    fn assert_fast_exp_matches_oracle(x: f32) {
        let (got, want) = (fast_exp(x), fast_exp_cast_scale(x));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "fast_exp({x:e}) = {got:e}, oracle {want:e}"
        );
    }

    #[test]
    fn fast_exp_bit_identical_to_cast_scale() {
        // ±126·ln 2 are the clamp edges; their neighbors sit on each side.
        let edge = 126.0 / LOG2_E;
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            edge,
            -edge,
            f32::from_bits(edge.to_bits() + 1),
            f32::from_bits(edge.to_bits() - 1),
            -f32::from_bits(edge.to_bits() + 1),
            -f32::from_bits(edge.to_bits() - 1),
        ];
        for x in specials {
            assert_fast_exp_matches_oracle(x);
        }
        // A strided sweep over every sign, exponent and mantissa region.
        for bits in (0..=u32::MAX).step_by(4099) {
            assert_fast_exp_matches_oracle(f32::from_bits(bits));
        }
    }

    #[test]
    #[ignore = "exhaustive over all 2^32 inputs; run with --ignored --release"]
    fn fast_exp_bit_identical_to_cast_scale_exhaustive() {
        for bits in 0..=u32::MAX {
            assert_fast_exp_matches_oracle(f32::from_bits(bits));
        }
    }

    #[test]
    fn lstm_step_matches_unfused_math() {
        let (b, h) = (2, 3);
        let pre: Vec<f32> = (0..b * 4 * h).map(|i| (i as f32) * 0.13 - 1.4).collect();
        let cp: Vec<f32> = (0..b * h).map(|i| (i as f32) * 0.21 - 0.5).collect();
        let mut hc = vec![0.0; b * 2 * h];
        let mut aux = vec![0.0; b * 5 * h];
        lstm_step_forward(b, h, &pre, &cp, &mut hc, &mut aux);
        for r in 0..b {
            for j in 0..h {
                let i = 1.0 / (1.0 + (-pre[r * 4 * h + j]).exp());
                let f = 1.0 / (1.0 + (-pre[r * 4 * h + h + j]).exp());
                let g = pre[r * 4 * h + 2 * h + j].tanh();
                let o = 1.0 / (1.0 + (-pre[r * 4 * h + 3 * h + j]).exp());
                let c = f * cp[r * h + j] + i * g;
                let hh = o * c.tanh();
                assert!((hc[r * 2 * h + j] - hh).abs() < 1e-4);
                assert!((hc[r * 2 * h + h + j] - c).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn lstm_step_propagates_nan() {
        let (b, h) = (1, 2);
        let mut pre = vec![0.0f32; 4 * h];
        pre[1] = f32::NAN; // NaN in the input gate block, lane 1
        let cp = vec![0.0f32; h];
        let mut hc = vec![0.0; 2 * h];
        let mut aux = vec![0.0; 5 * h];
        lstm_step_forward(b, h, &pre, &cp, &mut hc, &mut aux);
        assert!(hc[1].is_nan() && hc[h + 1].is_nan(), "fused LSTM masked a NaN: {hc:?}");
        assert!(!hc[0].is_nan(), "NaN leaked across lanes");
    }

    #[test]
    fn softmax_rows_and_degenerate_fallback() {
        let x = vec![1.0, 2.0, 3.0, f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY];
        let mut y = vec![0.0; 6];
        softmax_rows_forward(2, 3, &x, &mut y);
        let s: f32 = y[..3].iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(y[2] > y[1] && y[1] > y[0]);
        // Degenerate row: uniform, not NaN.
        for &v in &y[3..] {
            assert!((v - 1.0 / 3.0).abs() < 1e-6, "degenerate row not uniform: {y:?}");
        }
    }

    #[test]
    fn softmax_propagates_nan_rows() {
        let x = vec![f32::NAN, 1.0, 2.0];
        let mut y = vec![0.0; 3];
        softmax_rows_forward(1, 3, &x, &mut y);
        assert!(y.iter().all(|v| v.is_nan()), "NaN row must stay NaN: {y:?}");
        let x = vec![f32::NAN, f32::NEG_INFINITY];
        let mut y = vec![0.0; 2];
        softmax_rows_forward(1, 2, &x, &mut y);
        assert!(y.iter().any(|v| v.is_nan()), "NaN+(-inf) row masked: {y:?}");
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn softmax_zero_width_panics() {
        softmax_rows_forward(1, 0, &[], &mut []);
    }

    #[test]
    fn batchnorm_train_whitens_and_roundtrips() {
        let (m, n) = (4, 2);
        let x = vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0];
        let gamma = vec![1.0, 1.0];
        let beta = vec![0.0, 0.0];
        let mut y = vec![0.0; m * n];
        let mut aux = vec![0.0; m * n + 3 * n];
        batchnorm_train_forward(m, n, 1e-5, &x, &gamma, &beta, &mut y, &mut aux);
        for j in 0..n {
            let col: Vec<f32> = (0..m).map(|i| y[i * n + j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / m as f32;
            let var: f32 = col.iter().map(|c| (c - mean).powi(2)).sum::<f32>() / m as f32;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
        let (mean, var) = (&aux[m * n + n..m * n + 2 * n], &aux[m * n + 2 * n..]);
        assert!((mean[0] - 2.5).abs() < 1e-5 && (mean[1] - 25.0).abs() < 1e-4);
        assert!((var[0] - 1.25).abs() < 1e-4);
    }

    #[test]
    fn bias_fill_and_col_sum() {
        let mut out = vec![0.0; 6];
        bias_rows_fill(2, 3, &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
        let mut sums = vec![1.0, 0.0, 0.0];
        col_sum_acc(2, 3, &out, &mut sums);
        assert_eq!(sums, vec![3.0, 4.0, 6.0]);
    }
}
