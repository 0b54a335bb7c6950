//! The define-by-run autodiff tape.

use crate::kernels::{
    self, bias_rows_fill, col_sum_acc, fma_acc, gemm_acc, gemm_nt_acc, gemm_tn_acc,
};
use crate::store::{ParamId, ParamStore};

/// One LSTM layer's weights on the tape, as [`Graph::lstm_sequence`]
/// takes them: `w_ih` is `[in, 4h]`, `w_hh` is `[h, 4h]`, `bias` is
/// `[1, 4h]`, gate blocks ordered `[i | f | g | o]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LstmWeights {
    /// Input-to-gates weights.
    pub w_ih: Var,
    /// Hidden-to-gates (recurrent) weights.
    pub w_hh: Var,
    /// Gate bias row.
    pub bias: Var,
}

/// Handle to one node of a [`Graph`] tape. Cheap to copy; carries its shape
/// so op constructors can validate without touching the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var {
    idx: u32,
    rows: u32,
    cols: u32,
}

impl Var {
    /// Number of rows.
    pub fn rows(self) -> usize {
        self.rows as usize
    }
    /// Number of columns.
    pub fn cols(self) -> usize {
        self.cols as usize
    }
    /// Total element count.
    pub fn len(self) -> usize {
        self.rows() * self.cols()
    }
    /// Whether the tensor has no elements (never true on a live tape).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone)]
enum Op {
    Constant,
    Param(ParamId),
    Gather {
        id: ParamId,
        indices: Vec<u32>,
    },
    MatMul(u32, u32),
    /// Fused `x·W + bias` (bias row-broadcast): one kernel, one node.
    Affine {
        x: u32,
        w: u32,
        b: u32,
    },
    /// Fused `x·Wx + h·Wh + bias` — the LSTM gate preactivation block.
    Affine2 {
        x: u32,
        wx: u32,
        h: u32,
        wh: u32,
        b: u32,
    },
    /// Fused LSTM cell: value is `[h_new | c_new]`, aux carries the
    /// activated gates for the backward pass.
    LstmStep {
        pre: u32,
        c_prev: u32,
    },
    /// Fused stacked LSTM over a whole sequence from zero state: value is
    /// the top layer's final `h`; aux carries one `[gates | h | c]` block
    /// per (step, layer) for the backward pass (see
    /// [`Graph::lstm_sequence`]). `layers[l]` is `[w_ih, w_hh, bias]`.
    LstmSequence {
        steps: Vec<u32>,
        layers: Vec<[u32; 3]>,
    },
    /// Fused training-mode batch-norm; aux carries `[x̂|inv_std|mean|var]`.
    BatchNormTrain {
        x: u32,
        gamma: u32,
        beta: u32,
    },
    /// Fused eval-mode batch-norm; aux carries `[mean|inv_std]`.
    BatchNormEval {
        x: u32,
        gamma: u32,
        beta: u32,
    },
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    AddRowB(u32, u32),
    MulColB(u32, u32),
    DivColB(u32, u32),
    Relu(u32),
    Sqrt(u32),
    Square(u32),
    Scale(u32, f32),
    AddScalar(u32),
    SumAll(u32),
    MeanAll(u32),
    SumRows(u32),
    MeanCols(u32),
    SoftmaxRows(u32),
    /// Fused Time2Vec encoding: value is `[sin(pre) | cos(pre)] / √(1/k)`.
    Time2Vec(u32),
    /// Fused factored temporal attention: keys/values are implicit blends
    /// `K = x·wk + tv·kt`, `V = x·wv + tv·vt` that are never materialized;
    /// aux carries attention weights plus factored query/summary vectors
    /// for the backward pass.
    TemporalAttention {
        q: u32,
        x: u32,
        tv: u32,
        wk: u32,
        kt: u32,
        wv: u32,
        vt: u32,
        heads: usize,
        lmax: usize,
        lens: Vec<u32>,
    },
    ConcatCols(u32, u32),
    ConcatRows(Vec<u32>),
    SliceCols {
        x: u32,
        c0: usize,
        c1: usize,
    },
    SliceRows {
        x: u32,
        r0: usize,
    },
    SelectRows {
        x: u32,
        rows: Vec<u32>,
    },
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    rows: usize,
    cols: usize,
    value: Vec<f32>,
    /// Fused-op scratch saved by the forward pass for the backward pass
    /// (LSTM gates, batch-norm statistics). Empty for simple ops.
    aux: Vec<f32>,
}

/// Size-classed free list of `Vec<f32>` buffers.
///
/// Bucket `c` holds buffers whose capacity lies in `[2^c, 2^(c+1))`. A
/// request for `len` elements is served from the smallest bucket whose
/// buffers are guaranteed to fit it, looking at most [`Pool::SLACK`]
/// classes further up (bounded waste) before giving up and allocating
/// fresh — the fresh buffer joins its proper class on recycle, so the
/// pool converges to a right-sized working set after the first batch.
///
/// No stranding: a miss first evicts one too-small buffer of the
/// request's own class, so when sizes drift upward between batches the
/// fresh allocation replaces an idle buffer instead of joining it.
#[derive(Debug, Default)]
struct Pool {
    classes: Vec<Vec<Vec<f32>>>,
}

impl Pool {
    /// How many classes above the exact fit we are willing to draw from
    /// (≤ `2^SLACK`× capacity waste on a hit).
    const SLACK: usize = 2;

    fn class_of(cap: usize) -> usize {
        // floor(log2(cap)) for cap >= 1.
        (usize::BITS - 1 - cap.leading_zeros()) as usize
    }

    /// Return a buffer with `capacity >= len` when a suitably sized one is
    /// pooled; otherwise a fresh allocation of exactly `len`.
    ///
    /// The request's own class `class_of(len)` is scanned first with an
    /// explicit capacity check: buffers allocated fresh for a
    /// non-power-of-two `len` land exactly there (`capacity == len`), and
    /// skipping to the next class up would strand them forever — every
    /// take of that same `len` would miss, allocate fresh, and recycle
    /// yet another stranded buffer, growing the pool without bound.
    fn take(&mut self, len: usize) -> Vec<f32> {
        let lo = Self::class_of(len.max(1));
        let last = (lo + 1 + Self::SLACK).min(self.classes.len().saturating_sub(1));
        if let Some(bucket) = self.classes.get_mut(lo) {
            // Within-class capacities vary; only some fit `len`.
            if let Some(pos) = bucket.iter().rposition(|b| b.capacity() >= len) {
                return bucket.swap_remove(pos);
            }
        }
        for c in (lo + 1)..=last {
            // Every buffer in class c > lo has capacity >= 2^c > len.
            if let Some(bucket) = self.classes.get_mut(c) {
                if let Some(buf) = bucket.pop() {
                    return buf;
                }
            }
        }
        // Miss: whatever is left in class `lo` is too small for `len`.
        // Drop one of them, or a rising size would strand it here forever
        // while its fresh replacement joins it on recycle.
        if let Some(bucket) = self.classes.get_mut(lo) {
            bucket.pop();
        }
        Vec::with_capacity(len)
    }

    /// Recycle `buf` into the bucket matching its capacity.
    fn put(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let c = Self::class_of(cap);
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        self.classes[c].push(buf);
    }
}

/// A single-use tape: build the forward computation with the op methods
/// (values are computed eagerly), call [`Graph::backward`] once on a scalar
/// loss, then [`Graph::write_grads`] to accumulate leaf gradients into the
/// [`ParamStore`].
///
/// Tapes are cheap to reuse: [`Graph::recycle`] returns every value,
/// gradient, and aux buffer to an internal pool, so a long-lived `Graph`
/// builds successive batches without per-batch heap allocation.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Vec<f32>>,
    /// Recycled buffers, reused by [`Graph::alloc_zeroed`]/[`Graph::alloc_empty`].
    /// Bucketed by power-of-two capacity class so a request is always served
    /// by a buffer whose capacity already fits it: handing a small buffer to a
    /// large request forces a reallocation (an mmap/munmap round-trip plus
    /// page zero-faults for multi-megabyte tensors), and handing a large
    /// buffer to a small request strands its capacity for the rest of the
    /// batch, forcing the real large request to allocate fresh. With ~10^3
    /// live buffers per batch that churn dominated the epoch wall-clock.
    pool: Pool,
    /// `param()` memo: one tape node per distinct parameter, so layers
    /// that reference the same weights many times (an LSTM unrolled over
    /// time) neither re-copy the weight matrix nor split its gradient.
    param_cache: Vec<(ParamId, Var)>,
}

impl Graph {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of tape nodes (diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Clear the tape for reuse, returning all node/grad buffers to the
    /// internal pool. The next forward pass draws from the pool instead
    /// of the allocator.
    pub fn recycle(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.put(node.value);
            if node.aux.capacity() > 0 {
                self.pool.put(node.aux);
            }
        }
        for g in self.grads.drain(..) {
            self.pool.put(g);
        }
        self.param_cache.clear();
    }

    /// A pooled buffer of exactly `len` zeros.
    fn alloc_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pool.take(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// A pooled empty buffer with room for `cap` elements.
    fn alloc_empty(&mut self, cap: usize) -> Vec<f32> {
        let mut buf = self.pool.take(cap);
        buf.clear();
        buf.reserve(cap);
        buf
    }

    /// A pooled buffer of exactly `len` elements with *unspecified*
    /// (stale but initialized) contents — for outputs a kernel fully
    /// overwrites before anyone reads them. Skips the `alloc_zeroed`
    /// memset, which otherwise costs a full pass over every large tensor
    /// in the tape each batch.
    fn alloc_scratch(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.pool.take(len);
        // No `clear()`: shrinking is free and keeps the old contents;
        // growing writes only the missing tail.
        buf.resize(len, 0.0);
        buf
    }

    fn push(&mut self, op: Op, rows: usize, cols: usize, value: Vec<f32>) -> Var {
        self.push_aux(op, rows, cols, value, Vec::new())
    }

    fn push_aux(
        &mut self,
        op: Op,
        rows: usize,
        cols: usize,
        value: Vec<f32>,
        aux: Vec<f32>,
    ) -> Var {
        debug_assert_eq!(value.len(), rows * cols);
        debug_assert!(rows > 0 && cols > 0, "zero-sized tensor");
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { op, rows, cols, value, aux });
        Var { idx, rows: rows as u32, cols: cols as u32 }
    }

    fn val(&self, v: Var) -> &[f32] {
        &self.nodes[v.idx as usize].value
    }

    /// The forward value of `v` (row-major).
    pub fn value(&self, v: Var) -> &[f32] {
        self.val(v)
    }

    /// The gradient of the loss w.r.t. `v`. Zeros if `v` did not influence
    /// the loss. Only valid after [`Graph::backward`].
    ///
    /// # Panics
    /// Panics if `backward` has not been called.
    pub fn grad(&self, v: Var) -> &[f32] {
        assert!(!self.grads.is_empty(), "call backward() first");
        &self.grads[v.idx as usize]
    }

    // ---------------------------------------------------------------- leaves

    /// A constant (non-differentiable) tensor.
    ///
    /// # Panics
    /// Panics if `value.len() != rows * cols` or the shape is empty.
    pub fn constant(&mut self, rows: usize, cols: usize, value: Vec<f32>) -> Var {
        assert_eq!(value.len(), rows * cols, "constant shape mismatch");
        self.push(Op::Constant, rows, cols, value)
    }

    /// A differentiable leaf referencing the full value of parameter `id`.
    /// Memoized per tape: repeated calls with the same `id` return the
    /// same node, so gradients accumulate in one place and the value is
    /// copied once.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&(_, v)) = self.param_cache.iter().find(|(pid, _)| *pid == id) {
            return v;
        }
        let (rows, cols) = store.shape(id);
        let mut value = self.alloc_empty(rows * cols);
        value.extend_from_slice(store.value(id));
        let v = self.push(Op::Param(id), rows, cols, value);
        self.param_cache.push((id, v));
        v
    }

    /// Gather rows of parameter `id`: output row `r` is the parameter row
    /// `indices[r]`. Gradients scatter-add back into those rows, which is
    /// how embedding tables train sparsely.
    ///
    /// # Panics
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn gather(&mut self, store: &ParamStore, id: ParamId, indices: &[u32]) -> Var {
        let (prows, cols) = store.shape(id);
        assert!(!indices.is_empty(), "empty gather");
        let src = store.value(id);
        let mut value = self.alloc_empty(indices.len() * cols);
        for &i in indices {
            let i = i as usize;
            assert!(i < prows, "gather index {i} out of bounds ({prows} rows)");
            value.extend_from_slice(&src[i * cols..(i + 1) * cols]);
        }
        self.push(Op::Gather { id, indices: indices.to_vec() }, indices.len(), cols, value)
    }

    // ------------------------------------------------------------- binary ops

    /// Matrix product `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(a.cols(), b.rows(), "matmul inner dims {} vs {}", a.cols(), b.rows());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut value = self.alloc_zeroed(m * n);
        gemm_acc(m, k, n, self.val(a), self.val(b), &mut value);
        self.push(Op::MatMul(a.idx, b.idx), m, n, value)
    }

    /// Fused affine map `x·W + bias` (`[m,k]·[k,n] + [1,n] -> [m,n]`):
    /// the bias fill seeds the GEMM accumulator, replacing a
    /// matmul + add_rowb pair with one node.
    pub fn affine(&mut self, x: Var, w: Var, b: Var) -> Var {
        assert_eq!(x.cols(), w.rows(), "affine inner dims {} vs {}", x.cols(), w.rows());
        assert_eq!((b.rows(), b.cols()), (1, w.cols()), "affine bias must be [1,n]");
        let (m, k, n) = (x.rows(), x.cols(), w.cols());
        let mut value = self.alloc_scratch(m * n);
        bias_rows_fill(m, n, self.val(b), &mut value);
        gemm_acc(m, k, n, self.val(x), self.val(w), &mut value);
        self.push(Op::Affine { x: x.idx, w: w.idx, b: b.idx }, m, n, value)
    }

    /// Fused two-input affine map `x·Wx + h·Wh + bias -> [m,n]` — the
    /// LSTM gate preactivation in a single node (two GEMMs into a
    /// bias-seeded accumulator).
    pub fn affine2(&mut self, x: Var, wx: Var, h: Var, wh: Var, b: Var) -> Var {
        assert_eq!(x.cols(), wx.rows(), "affine2 x·Wx inner dims");
        assert_eq!(h.cols(), wh.rows(), "affine2 h·Wh inner dims");
        assert_eq!(x.rows(), h.rows(), "affine2 batch mismatch");
        assert_eq!(wx.cols(), wh.cols(), "affine2 output width mismatch");
        assert_eq!((b.rows(), b.cols()), (1, wx.cols()), "affine2 bias must be [1,n]");
        let (m, n) = (x.rows(), wx.cols());
        let mut value = self.alloc_scratch(m * n);
        bias_rows_fill(m, n, self.val(b), &mut value);
        gemm_acc(m, x.cols(), n, self.val(x), self.val(wx), &mut value);
        gemm_acc(m, h.cols(), n, self.val(h), self.val(wh), &mut value);
        self.push(Op::Affine2 { x: x.idx, wx: wx.idx, h: h.idx, wh: wh.idx, b: b.idx }, m, n, value)
    }

    /// Fused LSTM cell: `pre` is the `[batch, 4h]` gate preactivation
    /// block (`[i|f|g|o]`), `c_prev` the `[batch, h]` previous cell
    /// state. Returns `[batch, 2h] = [h_new | c_new]`; slice columns
    /// `0..h` and `h..2h` to recover the states. One node replaces the
    /// ~11 elementwise/slice nodes of the unfused cell.
    pub fn lstm_step(&mut self, pre: Var, c_prev: Var) -> Var {
        assert_eq!(pre.cols() % 4, 0, "lstm_step pre width must be 4h");
        let (b, h) = (pre.rows(), pre.cols() / 4);
        assert_eq!((c_prev.rows(), c_prev.cols()), (b, h), "lstm_step c_prev must be [batch, h]");
        let mut value = self.alloc_scratch(b * 2 * h);
        let mut aux = self.alloc_scratch(b * 5 * h);
        kernels::lstm_step_forward(b, h, self.val(pre), self.val(c_prev), &mut value, &mut aux);
        self.push_aux(Op::LstmStep { pre: pre.idx, c_prev: c_prev.idx }, b, 2 * h, value, aux)
    }

    /// Fused stacked LSTM over a whole sequence, starting from zero state:
    /// `steps[t]` is the `[batch, in]` input at step `t` (one `Var` may
    /// repeat), `layers[0]` maps `in → h` and every later layer `h → h`,
    /// layer `l + 1` consuming layer `l`'s per-step hidden state. Returns
    /// the top layer's final hidden state `[batch, h]`.
    ///
    /// One tape node replaces the four per (step, layer) of the
    /// [`affine2`](Self::affine2) → [`lstm_step`](Self::lstm_step) →
    /// two-slice unrolling, with the same values and gradients bit for
    /// bit: the same kernels run in the same order. Only what the
    /// backward pass reads is kept — per (step, layer) the gates
    /// `[i|f|g|o|tanh c]`, `h` and `c`, 7h floats per row against the
    /// unrolling's 21h (values plus gradients). At `t = 0` the state is
    /// structurally zero, so `h·W_hh`, its gradient GEMMs and the `c_prev`
    /// gradient are skipped; this depends on the step index only, never
    /// on data, so a NaN in `W_hh` still reaches every step `t ≥ 1`.
    ///
    /// # Panics
    /// Panics on an empty sequence or stack, ragged steps, or weights
    /// whose shapes do not chain.
    pub fn lstm_sequence(&mut self, steps: &[Var], layers: &[LstmWeights]) -> Var {
        assert!(!steps.is_empty(), "empty sequence");
        assert!(!layers.is_empty(), "need at least one layer");
        let (b, in_dim) = (steps[0].rows(), steps[0].cols());
        assert!(steps.iter().all(|x| (x.rows(), x.cols()) == (b, in_dim)), "ragged sequence");
        let h = layers[0].w_hh.rows();
        for (l, w) in layers.iter().enumerate() {
            let k = if l == 0 { in_dim } else { h };
            assert_eq!((w.w_ih.rows(), w.w_ih.cols()), (k, 4 * h), "layer {l} w_ih shape");
            assert_eq!((w.w_hh.rows(), w.w_hh.cols()), (h, 4 * h), "layer {l} w_hh shape");
            assert_eq!((w.bias.rows(), w.bias.cols()), (1, 4 * h), "layer {l} bias shape");
        }
        let nl = layers.len();
        let blk = lstm_block_len(b, h);
        let mut aux = self.alloc_scratch(steps.len() * nl * blk);
        let mut pre = self.alloc_scratch(b * 4 * h);
        let zeros = self.alloc_zeroed(b * h);
        for (t, &x) in steps.iter().enumerate() {
            for (l, w) in layers.iter().enumerate() {
                let off = (t * nl + l) * blk;
                let (done, rest) = aux.split_at_mut(off);
                let (gates, rest) = rest[..blk].split_at_mut(b * 5 * h);
                let (h_new, c_new) = rest.split_at_mut(b * h);
                let (input, k) = if l == 0 {
                    (self.val(x), in_dim)
                } else {
                    (lstm_block(&done[off - blk..], b, h).1, h)
                };
                bias_rows_fill(b, 4 * h, self.val(w.bias), &mut pre);
                gemm_acc(b, k, 4 * h, input, self.val(w.w_ih), &mut pre);
                let c_prev = if t == 0 {
                    &zeros[..]
                } else {
                    let (_, h_prev, c_prev) = lstm_block(&done[off - nl * blk..], b, h);
                    gemm_acc(b, h, 4 * h, h_prev, self.val(w.w_hh), &mut pre);
                    c_prev
                };
                kernels::lstm_cell_forward(b, h, &pre, c_prev, gates, h_new, c_new);
            }
        }
        let top = (steps.len() * nl - 1) * blk;
        let mut value = self.alloc_empty(b * h);
        value.extend_from_slice(lstm_block(&aux[top..], b, h).1);
        self.pool.put(pre);
        self.pool.put(zeros);
        let op = Op::LstmSequence {
            steps: steps.iter().map(|x| x.idx).collect(),
            layers: layers.iter().map(|w| [w.w_ih.idx, w.w_hh.idx, w.bias.idx]).collect(),
        };
        self.push_aux(op, b, h, value, aux)
    }

    /// Fused training-mode batch normalization over `[m,n]` with `[1,n]`
    /// gain/shift. Batch statistics are retrievable via
    /// [`Graph::bn_stats`] for running-average updates.
    pub fn batchnorm_train(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let (m, n) = (x.rows(), x.cols());
        assert_eq!((gamma.rows(), gamma.cols()), (1, n), "batchnorm gamma must be [1,n]");
        assert_eq!((beta.rows(), beta.cols()), (1, n), "batchnorm beta must be [1,n]");
        let mut value = self.alloc_scratch(m * n);
        let mut aux = self.alloc_scratch(m * n + 3 * n);
        kernels::batchnorm_train_forward(
            m,
            n,
            eps,
            self.val(x),
            self.val(gamma),
            self.val(beta),
            &mut value,
            &mut aux,
        );
        self.push_aux(
            Op::BatchNormTrain { x: x.idx, gamma: gamma.idx, beta: beta.idx },
            m,
            n,
            value,
            aux,
        )
    }

    /// The `(mean, var)` batch statistics computed by a
    /// [`Graph::batchnorm_train`] node (each `[n]`), for running-stat
    /// updates.
    ///
    /// # Panics
    /// Panics if `v` is not a `batchnorm_train` node.
    pub fn bn_stats(&self, v: Var) -> (&[f32], &[f32]) {
        let node = &self.nodes[v.idx as usize];
        match node.op {
            Op::BatchNormTrain { .. } => {
                let (m, n) = (node.rows, node.cols);
                let mean = &node.aux[m * n + n..m * n + 2 * n];
                let var = &node.aux[m * n + 2 * n..m * n + 3 * n];
                (mean, var)
            }
            _ => panic!("bn_stats on a non-batchnorm_train node"),
        }
    }

    /// Fused eval-mode batch normalization: whitens with the fixed
    /// `mean`/`var` running statistics (plain slices, not tape nodes —
    /// they are constants w.r.t. the loss) and applies `gamma`/`beta`.
    pub fn batchnorm_eval(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        mean: &[f32],
        var: &[f32],
        eps: f32,
    ) -> Var {
        let (m, n) = (x.rows(), x.cols());
        assert_eq!((gamma.rows(), gamma.cols()), (1, n), "batchnorm gamma must be [1,n]");
        assert_eq!((beta.rows(), beta.cols()), (1, n), "batchnorm beta must be [1,n]");
        assert_eq!(mean.len(), n, "batchnorm mean must be [n]");
        assert_eq!(var.len(), n, "batchnorm var must be [n]");
        let mut aux = self.alloc_empty(2 * n);
        aux.extend_from_slice(mean);
        aux.extend(var.iter().map(|&v| 1.0 / (v + eps).sqrt()));
        let mut value = self.alloc_scratch(m * n);
        kernels::batchnorm_eval_forward(
            m,
            n,
            self.val(x),
            &aux[..n],
            &aux[n..],
            self.val(gamma),
            self.val(beta),
            &mut value,
        );
        self.push_aux(
            Op::BatchNormEval { x: x.idx, gamma: gamma.idx, beta: beta.idx },
            m,
            n,
            value,
            aux,
        )
    }

    fn elementwise(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "elementwise shape mismatch");
        let mut value = self.alloc_empty(a.len());
        value.extend(self.val(a).iter().zip(self.val(b)).map(|(&x, &y)| f(x, y)));
        self.push(op, a.rows(), a.cols(), value)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(a, b, |x, y| x + y, Op::Add(a.idx, b.idx))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(a, b, |x, y| x - y, Op::Sub(a.idx, b.idx))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.elementwise(a, b, |x, y| x * y, Op::Mul(a.idx, b.idx))
    }

    /// `a[i,j] + b[0,j]` — bias addition.
    pub fn add_rowb(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(b.rows(), 1, "row-broadcast rhs must be [1,n]");
        assert_eq!(a.cols(), b.cols(), "row-broadcast width mismatch");
        let (m, n) = (a.rows(), a.cols());
        let mut value = self.alloc_empty(m * n);
        {
            let av = self.val(a);
            let bv = self.val(b);
            for i in 0..m {
                for j in 0..n {
                    value.push(av[i * n + j] + bv[j]);
                }
            }
        }
        self.push(Op::AddRowB(a.idx, b.idx), m, n, value)
    }

    fn col_broadcast(&mut self, a: Var, c: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        assert_eq!(c.cols(), 1, "col-broadcast rhs must be [m,1]");
        assert_eq!(a.rows(), c.rows(), "col-broadcast height mismatch");
        let (m, n) = (a.rows(), a.cols());
        let mut value = self.alloc_empty(m * n);
        {
            let av = self.val(a);
            let cv = self.val(c);
            for i in 0..m {
                for j in 0..n {
                    value.push(f(av[i * n + j], cv[i]));
                }
            }
        }
        self.push(op, m, n, value)
    }

    /// `a[i,j] * c[i,0]` — per-row scaling (attention weighting).
    pub fn mul_colb(&mut self, a: Var, c: Var) -> Var {
        self.col_broadcast(a, c, |x, y| x * y, Op::MulColB(a.idx, c.idx))
    }

    /// `a[i,j] / c[i,0]` — per-row normalization.
    pub fn div_colb(&mut self, a: Var, c: Var) -> Var {
        self.col_broadcast(a, c, |x, y| x / y, Op::DivColB(a.idx, c.idx))
    }

    // -------------------------------------------------------------- unary ops

    fn unary(&mut self, a: Var, f: impl Fn(f32) -> f32, op: Op) -> Var {
        let mut value = self.alloc_empty(a.len());
        value.extend(self.val(a).iter().map(|&x| f(x)));
        self.push(op, a.rows(), a.cols(), value)
    }

    /// `max(0, x)`.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, |x| x.max(0.0), Op::Relu(a.idx))
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(a, f32::sqrt, Op::Sqrt(a.idx))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.unary(a, |x| x * x, Op::Square(a.idx))
    }

    /// Multiply by a compile-time constant.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        self.unary(a, |x| k * x, Op::Scale(a.idx, k))
    }

    /// Add a compile-time constant to every element.
    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        self.unary(a, |x| x + k, Op::AddScalar(a.idx))
    }

    // -------------------------------------------------------------- reductions

    /// Sum of all elements `-> [1,1]`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f32 = self.val(a).iter().sum();
        self.push(Op::SumAll(a.idx), 1, 1, vec![s])
    }

    /// Mean of all elements `-> [1,1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let s: f32 = self.val(a).iter().sum();
        let n = a.len() as f32;
        self.push(Op::MeanAll(a.idx), 1, 1, vec![s / n])
    }

    /// Row sums `[m,n] -> [m,1]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let (m, n) = (a.rows(), a.cols());
        let mut value = self.alloc_empty(m);
        {
            let av = self.val(a);
            value.extend((0..m).map(|i| av[i * n..(i + 1) * n].iter().sum::<f32>()));
        }
        self.push(Op::SumRows(a.idx), m, 1, value)
    }

    /// Column means `[m,n] -> [1,n]`.
    pub fn mean_cols(&mut self, a: Var) -> Var {
        let (m, n) = (a.rows(), a.cols());
        let scale = 1.0 / m as f32;
        let mut value = self.alloc_zeroed(n);
        {
            let av = self.val(a);
            for i in 0..m {
                for j in 0..n {
                    value[j] += av[i * n + j];
                }
            }
        }
        value.iter_mut().for_each(|v| *v *= scale);
        self.push(Op::MeanCols(a.idx), 1, n, value)
    }

    /// Numerically-stable softmax along each row. A degenerate all-`-inf`
    /// row yields the uniform distribution instead of `0/0 = NaN`; rows
    /// containing NaN propagate NaN (see
    /// [`kernels::softmax_rows_forward`]).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let (m, n) = (a.rows(), a.cols());
        let mut value = self.alloc_scratch(m * n);
        kernels::softmax_rows_forward(m, n, self.val(a), &mut value);
        self.push(Op::SoftmaxRows(a.idx), m, n, value)
    }

    /// Fused Time2Vec / TimeKernel encoding `[m,k] -> [m,2k]`: from the
    /// frequency preactivation `pre = t·w + b` produce
    /// `[sin(pre) | cos(pre)] / √(1/k)` (the TGAT normalizer). See
    /// [`kernels::time2vec_forward`].
    pub fn time2vec(&mut self, pre: Var) -> Var {
        let (m, k) = (pre.rows(), pre.cols());
        let mut value = self.alloc_scratch(m * 2 * k);
        kernels::time2vec_forward(m, k, self.val(pre), &mut value);
        self.push(Op::Time2Vec(pre.idx), m, 2 * k, value)
    }

    /// Fused factored temporal attention — numerically equivalent to
    /// blending keys/values as `K = x·wk + tv·kt`, `V = x·wv + tv·vt` and
    /// running multi-head scaled-dot-product attention of `q` over each
    /// unit's live prefix of `(K, V)` (steps at or past the prefix get
    /// exactly zero weight and zero gradient), but the
    /// `[units·lmax, d]` key/value matrices are never materialized: the
    /// projections factor through the per-unit query and the
    /// attention-weighted input sums, so every GEMM-shaped step stays at
    /// `[units, ·]` scale. `q` is `[units, d]`; `x` (`[units·lmax, d]`)
    /// and `tv` (`[units·lmax, tk]`) are unit-major; `wk`/`wv` are
    /// `[d, d]`, `kt`/`vt` are `[tk, d]`; `lens[u] ∈ [1, lmax]`. Returns
    /// the concatenated head outputs `[units, d]`. See
    /// [`kernels::temporal_attention_forward`].
    ///
    /// # Panics
    /// Panics on shape mismatches, `heads` not dividing `d`, a prefix
    /// outside `[1, lmax]`, or aliased inputs (all seven must be distinct
    /// tape nodes).
    #[allow(clippy::too_many_arguments)]
    pub fn temporal_attention(
        &mut self,
        q: Var,
        x: Var,
        tv: Var,
        wk: Var,
        kt: Var,
        wv: Var,
        vt: Var,
        heads: usize,
        lens: &[u32],
    ) -> Var {
        let (units, d) = (q.rows(), q.cols());
        let tk = tv.cols();
        assert_eq!(x.cols(), d, "input width must match query width");
        assert_eq!(lens.len(), units, "one prefix length per unit");
        assert!(x.rows() % units == 0, "input rows must be units · lmax");
        let lmax = x.rows() / units;
        assert_eq!(tv.rows(), x.rows(), "time-encoding rows must match input rows");
        assert_eq!((wk.rows(), wk.cols()), (d, d), "wk must be [d, d]");
        assert_eq!((wv.rows(), wv.cols()), (d, d), "wv must be [d, d]");
        assert_eq!((kt.rows(), kt.cols()), (tk, d), "kt must be [tk, d]");
        assert_eq!((vt.rows(), vt.cols()), (tk, d), "vt must be [tk, d]");
        assert!(heads > 0 && d % heads == 0, "head count must divide width");
        let idxs = [q.idx, x.idx, tv.idx, wk.idx, kt.idx, wv.idx, vt.idx];
        for a in 0..idxs.len() {
            for b in (a + 1)..idxs.len() {
                assert!(idxs[a] != idxs[b], "temporal_attention inputs must be distinct nodes");
            }
        }
        let aux_w = kernels::temporal_attention_aux(lmax, d, tk, heads);
        let mut value = self.alloc_scratch(units * d);
        let mut aux = self.alloc_scratch(units * aux_w);
        kernels::temporal_attention_forward(
            units,
            lmax,
            d,
            tk,
            heads,
            lens,
            self.val(q),
            self.val(x),
            self.val(tv),
            self.val(wk),
            self.val(kt),
            self.val(wv),
            self.val(vt),
            &mut value,
            &mut aux,
        );
        let op = Op::TemporalAttention {
            q: q.idx,
            x: x.idx,
            tv: tv.idx,
            wk: wk.idx,
            kt: kt.idx,
            wv: wv.idx,
            vt: vt.idx,
            heads,
            lmax,
            lens: lens.to_vec(),
        };
        self.push_aux(op, units, d, value, aux)
    }

    // ------------------------------------------------------- shape operations

    /// Horizontal concatenation `[m,p] || [m,q] -> [m,p+q]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(a.rows(), b.rows(), "concat_cols height mismatch");
        let (m, p, q) = (a.rows(), a.cols(), b.cols());
        let mut value = self.alloc_empty(m * (p + q));
        {
            let av = self.val(a);
            let bv = self.val(b);
            for i in 0..m {
                value.extend_from_slice(&av[i * p..(i + 1) * p]);
                value.extend_from_slice(&bv[i * q..(i + 1) * q]);
            }
        }
        self.push(Op::ConcatCols(a.idx, b.idx), m, p + q, value)
    }

    /// Vertical concatenation of equal-width blocks.
    ///
    /// # Panics
    /// Panics if `parts` is empty or widths differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let n = parts[0].cols();
        assert!(parts.iter().all(|p| p.cols() == n), "concat_rows width mismatch");
        let m: usize = parts.iter().map(|p| p.rows()).sum();
        let mut value = self.alloc_empty(m * n);
        for p in parts {
            value.extend_from_slice(self.val(*p));
        }
        let idxs = parts.iter().map(|p| p.idx).collect();
        self.push(Op::ConcatRows(idxs), m, n, value)
    }

    /// Column slice `[m, c1-c0]` of `x` (used to split LSTM gate blocks).
    pub fn slice_cols(&mut self, x: Var, c0: usize, c1: usize) -> Var {
        assert!(c0 < c1 && c1 <= x.cols(), "bad column slice {c0}..{c1} of {}", x.cols());
        let (m, n) = (x.rows(), x.cols());
        let mut value = self.alloc_empty(m * (c1 - c0));
        {
            let xv = self.val(x);
            for i in 0..m {
                value.extend_from_slice(&xv[i * n + c0..i * n + c1]);
            }
        }
        self.push(Op::SliceCols { x: x.idx, c0, c1 }, m, c1 - c0, value)
    }

    /// Arbitrary row selection: output row `i` is `x`'s row `rows[i]`
    /// (repeats allowed). The batched generalization of
    /// [`slice_rows`](Self::slice_rows); gradients scatter-add back.
    ///
    /// # Panics
    /// Panics if `rows` is empty or any index is out of bounds.
    pub fn select_rows(&mut self, x: Var, rows: &[u32]) -> Var {
        assert!(!rows.is_empty(), "empty row selection");
        let n = x.cols();
        let mut value = self.alloc_empty(rows.len() * n);
        {
            let xv = self.val(x);
            for &r in rows {
                let r = r as usize;
                assert!(r < x.rows(), "row {r} out of bounds ({} rows)", x.rows());
                value.extend_from_slice(&xv[r * n..(r + 1) * n]);
            }
        }
        self.push(Op::SelectRows { x: x.idx, rows: rows.to_vec() }, rows.len(), n, value)
    }

    /// Row slice `[r1-r0, n]` of `x`.
    pub fn slice_rows(&mut self, x: Var, r0: usize, r1: usize) -> Var {
        assert!(r0 < r1 && r1 <= x.rows(), "bad row slice {r0}..{r1} of {}", x.rows());
        let n = x.cols();
        let mut value = self.alloc_empty((r1 - r0) * n);
        value.extend_from_slice(&self.nodes[x.idx as usize].value[r0 * n..r1 * n]);
        self.push(Op::SliceRows { x: x.idx, r0 }, r1 - r0, n, value)
    }

    // ----------------------------------------------------------- composites

    /// Squared L2 norm of each row `[m,n] -> [m,1]`.
    pub fn row_sq_norms(&mut self, a: Var) -> Var {
        let sq = self.square(a);
        self.sum_rows(sq)
    }

    /// L2-normalize each row: `x / max(||x||, eps)` — the Algorithm 1
    /// readout normalization.
    pub fn l2_normalize_rows(&mut self, a: Var, eps: f32) -> Var {
        let sq = self.row_sq_norms(a);
        let sq = self.add_scalar(sq, eps * eps);
        let norms = self.sqrt(sq);
        self.div_colb(a, norms)
    }

    // ------------------------------------------------------------- backward

    /// Run reverse-mode accumulation from scalar `loss`. May be called once
    /// per tape.
    ///
    /// # Panics
    /// Panics if `loss` is not `[1,1]` or `backward` already ran.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!((loss.rows(), loss.cols()), (1, 1), "loss must be scalar");
        assert!(self.grads.is_empty(), "backward may run only once per tape");
        let mut grads = Vec::with_capacity(self.nodes.len());
        for i in 0..self.nodes.len() {
            let len = self.nodes[i].value.len();
            let buf = self.alloc_zeroed(len);
            grads.push(buf);
        }
        self.grads = grads;
        self.grads[loss.idx as usize][0] = 1.0;

        for i in (0..self.nodes.len()).rev() {
            // Split borrows: gradient of node i is read-only while parents'
            // gradients are written. The op is temporarily moved out (and
            // restored below) so variants carrying `Vec`s are not cloned.
            let (rows, cols) = (self.nodes[i].rows, self.nodes[i].cols);
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Constant);
            let g = std::mem::take(&mut self.grads[i]);
            if g.iter().all(|&x| x == 0.0) {
                self.grads[i] = g;
                self.nodes[i].op = op;
                continue;
            }
            match &op {
                Op::Constant | Op::Param(_) | Op::Gather { .. } => {}
                &Op::MatMul(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    let (m, n) = (rows, cols);
                    let k = self.nodes[a].cols;
                    // dA += g · Bᵀ  (B stored k×n ⇒ use NT kernel)
                    let bval = std::mem::take(&mut self.nodes[b].value);
                    gemm_nt_acc(m, n, k, &g, &bval, &mut self.grads[a]);
                    self.nodes[b].value = bval;
                    // dB += Aᵀ · g  (A stored m×k ⇒ use TN kernel)
                    let aval = std::mem::take(&mut self.nodes[a].value);
                    gemm_tn_acc(k, m, n, &aval, &g, &mut self.grads[b]);
                    self.nodes[a].value = aval;
                }
                &Op::Affine { x, w, b } => {
                    let (x, w, b) = (x as usize, w as usize, b as usize);
                    let (m, n) = (rows, cols);
                    let k = self.nodes[x].cols;
                    let wval = std::mem::take(&mut self.nodes[w].value);
                    gemm_nt_acc(m, n, k, &g, &wval, &mut self.grads[x]);
                    self.nodes[w].value = wval;
                    let xval = std::mem::take(&mut self.nodes[x].value);
                    gemm_tn_acc(k, m, n, &xval, &g, &mut self.grads[w]);
                    self.nodes[x].value = xval;
                    col_sum_acc(m, n, &g, &mut self.grads[b]);
                }
                &Op::Affine2 { x, wx, h, wh, b } => {
                    let (x, wx, h, wh, b) =
                        (x as usize, wx as usize, h as usize, wh as usize, b as usize);
                    let (m, n) = (rows, cols);
                    let kx = self.nodes[x].cols;
                    let kh = self.nodes[h].cols;
                    let wv = std::mem::take(&mut self.nodes[wx].value);
                    gemm_nt_acc(m, n, kx, &g, &wv, &mut self.grads[x]);
                    self.nodes[wx].value = wv;
                    let xv = std::mem::take(&mut self.nodes[x].value);
                    gemm_tn_acc(kx, m, n, &xv, &g, &mut self.grads[wx]);
                    self.nodes[x].value = xv;
                    let wv = std::mem::take(&mut self.nodes[wh].value);
                    gemm_nt_acc(m, n, kh, &g, &wv, &mut self.grads[h]);
                    self.nodes[wh].value = wv;
                    let hv = std::mem::take(&mut self.nodes[h].value);
                    gemm_tn_acc(kh, m, n, &hv, &g, &mut self.grads[wh]);
                    self.nodes[h].value = hv;
                    col_sum_acc(m, n, &g, &mut self.grads[b]);
                }
                &Op::LstmStep { pre, c_prev } => {
                    let (pre, cp) = (pre as usize, c_prev as usize);
                    let (b, hdim) = (rows, cols / 2);
                    let (dpre, dcp) = two_muts(&mut self.grads, pre, cp);
                    kernels::lstm_step_backward(
                        b,
                        hdim,
                        &self.nodes[i].aux,
                        &self.nodes[cp].value,
                        &g,
                        dpre,
                        dcp,
                    );
                }
                Op::LstmSequence { steps, layers } => {
                    self.lstm_sequence_backward(i, steps, layers, &g)
                }
                &Op::BatchNormTrain { x, gamma, beta } => {
                    let (x, ga, be) = (x as usize, gamma as usize, beta as usize);
                    let (m, n) = (rows, cols);
                    let (dx, dgamma, dbeta) = three_muts(&mut self.grads, x, ga, be);
                    kernels::batchnorm_train_backward(
                        m,
                        n,
                        &self.nodes[i].aux,
                        &self.nodes[ga].value,
                        &g,
                        dx,
                        dgamma,
                        dbeta,
                    );
                }
                &Op::BatchNormEval { x, gamma, beta } => {
                    let (x, ga, be) = (x as usize, gamma as usize, beta as usize);
                    let (m, n) = (rows, cols);
                    let aux = &self.nodes[i].aux;
                    let (dx, dgamma, dbeta) = three_muts(&mut self.grads, x, ga, be);
                    kernels::batchnorm_eval_backward(
                        m,
                        n,
                        &self.nodes[x].value,
                        &aux[..n],
                        &aux[n..],
                        &self.nodes[ga].value,
                        &g,
                        dx,
                        dgamma,
                        dbeta,
                    );
                }
                &Op::Add(a, b) => {
                    acc(&mut self.grads[a as usize], &g, 1.0);
                    acc(&mut self.grads[b as usize], &g, 1.0);
                }
                &Op::Sub(a, b) => {
                    acc(&mut self.grads[a as usize], &g, 1.0);
                    acc(&mut self.grads[b as usize], &g, -1.0);
                }
                &Op::Mul(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    let bv = std::mem::take(&mut self.nodes[b].value);
                    fma_acc(&g, &bv, &mut self.grads[a]);
                    self.nodes[b].value = bv;
                    let av = std::mem::take(&mut self.nodes[a].value);
                    fma_acc(&g, &av, &mut self.grads[b]);
                    self.nodes[a].value = av;
                }
                &Op::AddRowB(a, b) => {
                    acc(&mut self.grads[a as usize], &g, 1.0);
                    row_reduce_acc(&g, rows, cols, &mut self.grads[b as usize]);
                }
                &Op::MulColB(a, c) => {
                    let (a, c) = (a as usize, c as usize);
                    let cv = std::mem::take(&mut self.nodes[c].value);
                    for i2 in 0..rows {
                        let ga = &mut self.grads[a][i2 * cols..(i2 + 1) * cols];
                        let gr = &g[i2 * cols..(i2 + 1) * cols];
                        let ci = cv[i2];
                        for (d, &gv) in ga.iter_mut().zip(gr) {
                            *d += gv * ci;
                        }
                    }
                    self.nodes[c].value = cv;
                    let av = std::mem::take(&mut self.nodes[a].value);
                    for i2 in 0..rows {
                        let ar = &av[i2 * cols..(i2 + 1) * cols];
                        let gr = &g[i2 * cols..(i2 + 1) * cols];
                        let mut s = 0.0f32;
                        for (&gv, &x) in gr.iter().zip(ar) {
                            s += gv * x;
                        }
                        self.grads[c][i2] += s;
                    }
                    self.nodes[a].value = av;
                }
                &Op::DivColB(a, c) => {
                    let (a, c) = (a as usize, c as usize);
                    let cv = std::mem::take(&mut self.nodes[c].value);
                    for i2 in 0..rows {
                        let ga = &mut self.grads[a][i2 * cols..(i2 + 1) * cols];
                        let gr = &g[i2 * cols..(i2 + 1) * cols];
                        let inv = 1.0 / cv[i2];
                        for (d, &gv) in ga.iter_mut().zip(gr) {
                            *d += gv * inv;
                        }
                    }
                    self.nodes[c].value = cv;
                    let av = std::mem::take(&mut self.nodes[a].value);
                    {
                        let cv = &self.nodes[c].value;
                        for i2 in 0..rows {
                            let ar = &av[i2 * cols..(i2 + 1) * cols];
                            let gr = &g[i2 * cols..(i2 + 1) * cols];
                            let mut s = 0.0f32;
                            for (&gv, &x) in gr.iter().zip(ar) {
                                s += gv * x;
                            }
                            self.grads[c][i2] -= s / (cv[i2] * cv[i2]);
                        }
                    }
                    self.nodes[a].value = av;
                }
                &Op::Relu(a) => {
                    let a = a as usize;
                    let av = std::mem::take(&mut self.nodes[a].value);
                    {
                        let ga = &mut self.grads[a];
                        for (j, &gj) in g.iter().enumerate() {
                            if av[j] > 0.0 {
                                ga[j] += gj;
                            }
                        }
                    }
                    self.nodes[a].value = av;
                }
                &Op::Sqrt(a) => {
                    let out = &self.nodes[i].value;
                    let ga = &mut self.grads[a as usize];
                    for (j, &gj) in g.iter().enumerate() {
                        ga[j] += gj * 0.5 / out[j];
                    }
                }
                &Op::Square(a) => {
                    let a = a as usize;
                    let av = std::mem::take(&mut self.nodes[a].value);
                    {
                        let ga = &mut self.grads[a];
                        for (j, &gj) in g.iter().enumerate() {
                            ga[j] += gj * 2.0 * av[j];
                        }
                    }
                    self.nodes[a].value = av;
                }
                &Op::Scale(a, k) => acc(&mut self.grads[a as usize], &g, k),
                &Op::AddScalar(a) => acc(&mut self.grads[a as usize], &g, 1.0),
                &Op::SumAll(a) => {
                    let ga = &mut self.grads[a as usize];
                    ga.iter_mut().for_each(|x| *x += g[0]);
                }
                &Op::MeanAll(a) => {
                    let ga = &mut self.grads[a as usize];
                    let k = g[0] / ga.len() as f32;
                    ga.iter_mut().for_each(|x| *x += k);
                }
                &Op::SumRows(a) => {
                    let n = self.nodes[a as usize].cols;
                    let ga = &mut self.grads[a as usize];
                    for (i2, &gi) in g.iter().enumerate() {
                        for x in &mut ga[i2 * n..(i2 + 1) * n] {
                            *x += gi;
                        }
                    }
                }
                &Op::MeanCols(a) => {
                    let m = self.nodes[a as usize].rows;
                    let scale = 1.0 / m as f32;
                    let n = self.nodes[a as usize].cols;
                    let ga = &mut self.grads[a as usize];
                    for i2 in 0..m {
                        for j in 0..n {
                            ga[i2 * n + j] += g[j] * scale;
                        }
                    }
                }
                &Op::SoftmaxRows(a) => {
                    let out = &self.nodes[i].value;
                    kernels::softmax_rows_backward(
                        rows,
                        cols,
                        out,
                        &g,
                        &mut self.grads[a as usize],
                    );
                }
                &Op::Time2Vec(pre) => {
                    let pre = pre as usize;
                    let k = cols / 2;
                    let pv = std::mem::take(&mut self.nodes[pre].value);
                    kernels::time2vec_backward(rows, k, &pv, &g, &mut self.grads[pre]);
                    self.nodes[pre].value = pv;
                }
                Op::TemporalAttention { q, x, tv, wk, kt, wv, vt, heads, lmax, lens } => {
                    let (qi, xi, tvi) = (*q as usize, *x as usize, *tv as usize);
                    let (wki, kti, wvi, vti) =
                        (*wk as usize, *kt as usize, *wv as usize, *vt as usize);
                    let tk = self.nodes[tvi].cols;
                    let mut scratch = self.alloc_scratch(rows * *heads * (cols + tk));
                    // Seven distinct parents: move their gradient buffers
                    // out instead of splitting seven simultaneous borrows.
                    let mut dq = std::mem::take(&mut self.grads[qi]);
                    let mut dx = std::mem::take(&mut self.grads[xi]);
                    let mut dtv = std::mem::take(&mut self.grads[tvi]);
                    let mut dwk = std::mem::take(&mut self.grads[wki]);
                    let mut dkt = std::mem::take(&mut self.grads[kti]);
                    let mut dwv = std::mem::take(&mut self.grads[wvi]);
                    let mut dvt = std::mem::take(&mut self.grads[vti]);
                    kernels::temporal_attention_backward(
                        rows,
                        *lmax,
                        cols,
                        tk,
                        *heads,
                        lens,
                        &self.nodes[qi].value,
                        &self.nodes[xi].value,
                        &self.nodes[tvi].value,
                        &self.nodes[wki].value,
                        &self.nodes[kti].value,
                        &self.nodes[wvi].value,
                        &self.nodes[vti].value,
                        &self.nodes[i].aux,
                        &g,
                        &mut scratch,
                        &mut dq,
                        &mut dx,
                        &mut dtv,
                        &mut dwk,
                        &mut dkt,
                        &mut dwv,
                        &mut dvt,
                    );
                    self.grads[qi] = dq;
                    self.grads[xi] = dx;
                    self.grads[tvi] = dtv;
                    self.grads[wki] = dwk;
                    self.grads[kti] = dkt;
                    self.grads[wvi] = dwv;
                    self.grads[vti] = dvt;
                    self.pool.put(scratch);
                }
                &Op::ConcatCols(a, b) => {
                    let (a, b) = (a as usize, b as usize);
                    let p = self.nodes[a].cols;
                    let q = self.nodes[b].cols;
                    for i2 in 0..rows {
                        let row = &g[i2 * (p + q)..(i2 + 1) * (p + q)];
                        for (j, &gv) in row[..p].iter().enumerate() {
                            self.grads[a][i2 * p + j] += gv;
                        }
                        for (j, &gv) in row[p..].iter().enumerate() {
                            self.grads[b][i2 * q + j] += gv;
                        }
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut r = 0usize;
                    for &pidx in parts {
                        let pr = self.nodes[pidx as usize].rows;
                        let chunk = &g[r * cols..(r + pr) * cols];
                        acc(&mut self.grads[pidx as usize], chunk, 1.0);
                        r += pr;
                    }
                }
                &Op::SliceCols { x, c0, c1 } => {
                    let n = self.nodes[x as usize].cols;
                    let w = c1 - c0;
                    let gx = &mut self.grads[x as usize];
                    for i2 in 0..rows {
                        for j in 0..w {
                            gx[i2 * n + c0 + j] += g[i2 * w + j];
                        }
                    }
                }
                &Op::SliceRows { x, r0 } => {
                    let n = cols;
                    let gx = &mut self.grads[x as usize];
                    for (j, &gv) in g.iter().enumerate() {
                        gx[r0 * n + j] += gv;
                    }
                }
                Op::SelectRows { x, rows: sel } => {
                    let n = cols;
                    let gx = &mut self.grads[*x as usize];
                    for (i2, &r) in sel.iter().enumerate() {
                        let dst = &mut gx[r as usize * n..(r as usize + 1) * n];
                        for (d, &gv) in dst.iter_mut().zip(&g[i2 * n..(i2 + 1) * n]) {
                            *d += gv;
                        }
                    }
                }
            }
            self.grads[i] = g;
            self.nodes[i].op = op;
        }
    }

    /// Backpropagation through time for the [`Graph::lstm_sequence`] node
    /// `i` with upstream gradient `g`, in exactly the unrolled tape's
    /// order: steps in reverse, top layer first, and per (step, layer) the
    /// `affine2` backward's GEMMs one by one (input term, `dW_ih`,
    /// recurrent term, `dW_hh`, bias). The gradient of `h[t][l]` receives
    /// the `W_hh` term from step `t + 1` before the `W_ih` term from layer
    /// `l + 1`, each `+=` into a zeroed buffer. The weight-gradient GEMMs
    /// are never merged across steps: that would change `gemm_tn_acc`'s
    /// chunk tree and with it the bits.
    fn lstm_sequence_backward(&mut self, i: usize, steps: &[u32], layers: &[[u32; 3]], g: &[f32]) {
        let (b, h) = (self.nodes[i].rows, self.nodes[i].cols);
        let nl = layers.len();
        let blk = lstm_block_len(b, h);
        let mut dpre = self.alloc_scratch(b * 4 * h);
        let mut dcp = self.alloc_scratch(b * h);
        let zeros = self.alloc_zeroed(b * h);
        // Per layer: the gradients of the current step's `h` and `c`.
        let mut dh: Vec<Vec<f32>> = (0..nl).map(|_| self.alloc_zeroed(b * h)).collect();
        let mut dc: Vec<Vec<f32>> = (0..nl).map(|_| self.alloc_zeroed(b * h)).collect();
        for (d, &gv) in dh[nl - 1].iter_mut().zip(g) {
            *d += gv;
        }
        let (nodes, grads) = (&self.nodes, &mut self.grads);
        let aux = &nodes[i].aux;
        for t in (0..steps.len()).rev() {
            for l in (0..nl).rev() {
                let [w_ih, w_hh, bias] = layers[l].map(|v| v as usize);
                let off = (t * nl + l) * blk;
                let gates = lstm_block(&aux[off..], b, h).0;
                let c_prev =
                    if t == 0 { &zeros[..] } else { lstm_block(&aux[off - nl * blk..], b, h).2 };
                dpre.fill(0.0);
                let d_cprev = if t > 0 {
                    dcp.fill(0.0);
                    Some(&mut dcp[..])
                } else {
                    None
                };
                kernels::lstm_cell_backward(
                    b, h, gates, c_prev, &dh[l], &dc[l], &mut dpre, d_cprev,
                );
                std::mem::swap(&mut dc[l], &mut dcp);

                let k = nodes[w_ih].rows;
                let (x, dx) = if l == 0 {
                    let x = steps[t] as usize;
                    (&nodes[x].value[..], &mut grads[x])
                } else {
                    (lstm_block(&aux[off - blk..], b, h).1, &mut dh[l - 1])
                };
                gemm_nt_acc(b, 4 * h, k, &dpre, &nodes[w_ih].value, dx);
                gemm_tn_acc(k, b, 4 * h, x, &dpre, &mut grads[w_ih]);
                if t > 0 {
                    let h_prev = lstm_block(&aux[off - nl * blk..], b, h).1;
                    dh[l].fill(0.0);
                    gemm_nt_acc(b, 4 * h, h, &dpre, &nodes[w_hh].value, &mut dh[l]);
                    gemm_tn_acc(h, b, 4 * h, h_prev, &dpre, &mut grads[w_hh]);
                }
                col_sum_acc(b, 4 * h, &dpre, &mut grads[bias]);
            }
        }
        for buf in [dpre, dcp, zeros].into_iter().chain(dh).chain(dc) {
            self.pool.put(buf);
        }
    }

    /// Accumulate leaf gradients into `store` (dense for [`Graph::param`]
    /// leaves, scatter-add for [`Graph::gather`] leaves). Requires
    /// [`Graph::backward`] to have run.
    pub fn write_grads(&self, store: &mut ParamStore) {
        assert!(!self.grads.is_empty(), "call backward() first");
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.op {
                Op::Param(id) => {
                    let g = &self.grads[i];
                    for (dst, &src) in store.grad_mut(*id).iter_mut().zip(g) {
                        *dst += src;
                    }
                }
                Op::Gather { id, indices } => {
                    let g = &self.grads[i];
                    let (_, cols) = store.shape(*id);
                    let dst = store.grad_mut(*id);
                    for (r, &idx) in indices.iter().enumerate() {
                        let row = &g[r * cols..(r + 1) * cols];
                        let out = &mut dst[idx as usize * cols..(idx as usize + 1) * cols];
                        for (o, &v) in out.iter_mut().zip(row) {
                            *o += v;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Floats in one (step, layer) block of an [`Graph::lstm_sequence`] aux
/// buffer: `b` rows each of gates (`5h`), then `h` (`b × h`), then `c`.
fn lstm_block_len(b: usize, h: usize) -> usize {
    b * 7 * h
}

/// The `(gates, h, c)` parts of the aux block starting at `blk[0]`.
fn lstm_block(blk: &[f32], b: usize, h: usize) -> (&[f32], &[f32], &[f32]) {
    let (gates, rest) = blk.split_at(b * 5 * h);
    let (hs, rest) = rest.split_at(b * h);
    (gates, hs, &rest[..b * h])
}

/// `dst += k * src`.
fn acc(dst: &mut [f32], src: &[f32], k: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += k * s;
    }
}

/// Column-sum `g` ([m,n]) into `dst` ([n]).
fn row_reduce_acc(g: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), cols);
    for i in 0..rows {
        for j in 0..cols {
            dst[j] += g[i * cols + j];
        }
    }
}

/// Two simultaneous mutable borrows of distinct slice elements.
fn two_muts<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "aliasing gradient borrow");
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        let (x, y) = (&mut hi[0], &mut lo[b]);
        (x, y)
    }
}

/// Three simultaneous mutable borrows of distinct slice elements,
/// returned in argument order.
fn three_muts<T>(v: &mut [T], a: usize, b: usize, c: usize) -> (&mut T, &mut T, &mut T) {
    assert!(a != b && b != c && a != c, "aliasing gradient borrow");
    let mut order = [(a, 0usize), (b, 1), (c, 2)];
    order.sort_unstable_by_key(|&(i, _)| i);
    let (lo, rest) = v.split_at_mut(order[1].0);
    let (mid, hi) = rest.split_at_mut(order[2].0 - order[1].0);
    let mut slots = [Some(&mut lo[order[0].0]), Some(&mut mid[0]), Some(&mut hi[0])];
    let mut out: [Option<&mut T>; 3] = [None, None, None];
    for k in 0..3 {
        out[order[k].1] = slots[k].take();
    }
    let [x, y, z] = out;
    (x.unwrap(), y.unwrap(), z.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.constant(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = g.constant(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = g.matmul(a, b);
        assert_eq!(g.value(c), &[19.0, 22.0, 43.0, 50.0]);
        let s = g.sum_all(c);
        assert_eq!(g.value(s), &[134.0]);
        let sm = g.softmax_rows(a);
        let v = g.value(sm);
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
        assert!(v[1] > v[0]);
    }

    #[test]
    fn simple_gradient_chain() {
        // loss = sum((2x)^2) => dloss/dx = 8x
        let mut store = ParamStore::new();
        let x = store.add_param("x", 1, 3, vec![1.0, -2.0, 0.5]);
        let mut g = Graph::new();
        let xv = g.param(&store, x);
        let y = g.scale(xv, 2.0);
        let y2 = g.square(y);
        let loss = g.sum_all(y2);
        g.backward(loss);
        g.write_grads(&mut store);
        let expect = [8.0, -16.0, 4.0];
        for (a, e) in store.grad(x).iter().zip(expect) {
            assert!((a - e).abs() < 1e-5, "{a} vs {e}");
        }
    }

    #[test]
    fn gather_scatters_gradients() {
        let mut store = ParamStore::new();
        let emb = store.add_param("emb", 4, 2, vec![0.0; 8]);
        let mut g = Graph::new();
        let rows = g.gather(&store, emb, &[1, 3, 1]);
        assert_eq!(rows.rows(), 3);
        let loss = g.sum_all(rows);
        g.backward(loss);
        g.write_grads(&mut store);
        // Row 1 gathered twice => grad 2; row 3 once => 1; rows 0,2 => 0.
        assert_eq!(store.grad(emb), &[0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn grad_of_unused_node_is_zero() {
        let mut g = Graph::new();
        let a = g.constant(1, 2, vec![1.0, 2.0]);
        let b = g.constant(1, 2, vec![3.0, 4.0]);
        let s = g.sum_all(a);
        g.backward(s);
        assert_eq!(g.grad(b), &[0.0, 0.0]);
        assert_eq!(g.grad(a), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn non_scalar_loss_panics() {
        let mut g = Graph::new();
        let a = g.constant(1, 2, vec![1.0, 2.0]);
        g.backward(a);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn shape_mismatch_panics() {
        let mut g = Graph::new();
        let a = g.constant(2, 3, vec![0.0; 6]);
        let b = g.constant(2, 3, vec![0.0; 6]);
        g.matmul(a, b);
    }

    #[test]
    fn l2_normalize_unit_rows() {
        let mut g = Graph::new();
        let a = g.constant(2, 2, vec![3.0, 4.0, 0.0, 5.0]);
        let n = g.l2_normalize_rows(a, 1e-8);
        let v = g.value(n);
        assert!((v[0] - 0.6).abs() < 1e-5);
        assert!((v[1] - 0.8).abs() < 1e-5);
        assert!((v[3] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let mut g = Graph::new();
        let a = g.constant(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = g.constant(2, 1, vec![9.0, 10.0]);
        let c = g.concat_cols(a, b);
        assert_eq!(g.value(c), &[1.0, 2.0, 9.0, 3.0, 4.0, 10.0]);
        let back = g.slice_cols(c, 0, 2);
        assert_eq!(g.value(back), g.value(a));
        let stacked = g.concat_rows(&[a, a]);
        assert_eq!(stacked.rows(), 4);
        let r = g.slice_rows(stacked, 2, 4);
        assert_eq!(g.value(r), g.value(a));
    }

    #[test]
    fn affine_matches_matmul_add_rowb() {
        let x = vec![1.0, -2.0, 0.5, 3.0, 0.25, -1.0];
        let w = vec![0.5, 1.0, -1.0, 2.0, 0.75, -0.25];
        let b = vec![0.1, -0.2];
        let mut g = Graph::new();
        let xv = g.constant(2, 3, x.clone());
        let wv = g.constant(3, 2, w.clone());
        let bv = g.constant(1, 2, b.clone());
        let fused = g.affine(xv, wv, bv);
        let mm = g.matmul(xv, wv);
        let unfused = g.add_rowb(mm, bv);
        for (a, e) in g.value(fused).iter().zip(g.value(unfused)) {
            assert!((a - e).abs() < 1e-5, "{a} vs {e}");
        }
    }

    #[test]
    fn affine2_matches_two_matmuls() {
        let mut g = Graph::new();
        let x = g.constant(2, 2, vec![1.0, 2.0, -1.0, 0.5]);
        let wx = g.constant(2, 3, vec![0.1, 0.2, 0.3, -0.1, 0.4, 0.0]);
        let h = g.constant(2, 2, vec![0.5, -0.5, 1.5, 2.0]);
        let wh = g.constant(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.25, 0.75]);
        let b = g.constant(1, 3, vec![0.01, -0.02, 0.03]);
        let fused = g.affine2(x, wx, h, wh, b);
        let m1 = g.matmul(x, wx);
        let m2 = g.matmul(h, wh);
        let s = g.add(m1, m2);
        let unfused = g.add_rowb(s, b);
        for (a, e) in g.value(fused).iter().zip(g.value(unfused)) {
            assert!((a - e).abs() < 1e-5, "{a} vs {e}");
        }
    }

    #[test]
    fn lstm_step_splits_into_h_and_c() {
        let mut g = Graph::new();
        let pre = g.constant(1, 8, vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.8, 0.2, -0.6]);
        let cp = g.constant(1, 2, vec![0.25, -0.75]);
        let hc = g.lstm_step(pre, cp);
        assert_eq!((hc.rows(), hc.cols()), (1, 4));
        let h = g.slice_cols(hc, 0, 2);
        let c = g.slice_cols(hc, 2, 4);
        // Reference: unfused gate math.
        let prev = g.value(pre).to_vec();
        let cpv = g.value(cp).to_vec();
        for j in 0..2 {
            let i = 1.0 / (1.0 + (-prev[j]).exp());
            let f = 1.0 / (1.0 + (-prev[2 + j]).exp());
            let gg = prev[4 + j].tanh();
            let o = 1.0 / (1.0 + (-prev[6 + j]).exp());
            let cval = f * cpv[j] + i * gg;
            assert!((g.value(c)[j] - cval).abs() < 1e-4);
            assert!((g.value(h)[j] - o * cval.tanh()).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_degenerate_row_uniform_and_backward_finite() {
        let mut store = ParamStore::new();
        let p = store.add_param("p", 1, 3, vec![1.0, 2.0, 3.0]);
        let mut g = Graph::new();
        let pv = g.param(&store, p);
        let ninf = g.constant(1, 3, vec![f32::NEG_INFINITY; 3]);
        let both = g.concat_rows(&[pv, ninf]);
        let sm = g.softmax_rows(both);
        let v = g.value(sm).to_vec();
        for &u in &v[3..] {
            assert!((u - 1.0 / 3.0).abs() < 1e-6, "degenerate row must be uniform: {v:?}");
        }
        let loss = g.sum_all(sm);
        g.backward(loss);
        g.write_grads(&mut store);
        for &gr in store.grad(p) {
            assert!(gr.is_finite(), "degenerate softmax poisoned the backward pass");
        }
    }

    #[test]
    fn param_is_memoized_per_tape() {
        let mut store = ParamStore::new();
        let p = store.add_param("w", 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut g = Graph::new();
        let a = g.param(&store, p);
        let b = g.param(&store, p);
        assert_eq!(a, b, "same param must map to the same tape node");
        // Gradient accumulates once per use even though the node is shared.
        let s1 = g.sum_all(a);
        let s2 = g.sum_all(b);
        let tot = g.add(s1, s2);
        g.backward(tot);
        g.write_grads(&mut store);
        assert_eq!(store.grad(p), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn recycle_reuses_buffers_and_resets_tape() {
        let mut store = ParamStore::new();
        let p = store.add_param("x", 1, 2, vec![1.0, 2.0]);
        let mut g = Graph::new();
        let run = |g: &mut Graph, store: &mut ParamStore| {
            let x = g.param(store, p);
            let y = g.square(x);
            let loss = g.sum_all(y);
            g.backward(loss);
            g.write_grads(store);
            g.value(y).to_vec()
        };
        let v1 = run(&mut g, &mut store);
        let grads1 = store.grad(p).to_vec();
        store.zero_grads();
        g.recycle();
        assert_eq!(g.num_nodes(), 0);
        let v2 = run(&mut g, &mut store);
        assert_eq!(v1, v2, "recycled tape must recompute identical values");
        assert_eq!(grads1, store.grad(p), "recycled tape must recompute identical grads");
    }

    #[test]
    fn pool_reuses_exact_nonpow2_sizes_without_growing() {
        // Regression: a fresh buffer for a non-power-of-two `len` has
        // `capacity == len` and recycles into `class_of(len)`; `take`
        // must find it there, or every request of that size allocates
        // fresh and the pool grows one stranded buffer per round.
        let mut pool = Pool::default();
        let len = 320 * 10 * 32; // 102400: the attn-path unit tensor size
        let buf = pool.take(len);
        assert_eq!(buf.capacity(), len, "miss on empty pool allocates exactly len");
        pool.put(buf);
        let reused = pool.take(len);
        assert!(reused.capacity() >= len);
        assert_eq!(reused.capacity(), len, "the recycled buffer itself must be reused");
        pool.put(reused);
        let pooled: usize = pool.classes.iter().map(Vec::len).sum();
        assert_eq!(pooled, 1, "steady-state per-size working set is one buffer, not a leak");
    }

    #[test]
    fn pool_does_not_strand_buffers_when_sizes_rise() {
        // Regression: a miss used to leave the class's too-small buffers
        // in place, so a request size rising batch by batch within one
        // class grew the idle pool by one stranded buffer per round.
        let mut pool = Pool::default();
        for round in 0..32 {
            let buf = pool.take((1 << 16) + round * 1000);
            pool.put(buf);
        }
        let idle: Vec<usize> = pool.classes.iter().flatten().map(Vec::capacity).collect();
        assert_eq!(idle.len(), 1, "idle buffers {idle:?}: one per working-set slot");
        assert!(idle[0] < 1 << 17, "idle capacity stays within the class");
    }

    #[test]
    fn lstm_sequence_zero_state_skip_is_structural() {
        // The t = 0 state is structurally zero, so `h·W_hh` is skipped
        // there; a NaN in `W_hh` must still poison every later step.
        let mut g = Graph::new();
        let x = g.constant(1, 1, vec![0.5]);
        let layer = LstmWeights {
            w_ih: g.constant(1, 4, vec![0.1, 0.2, 0.3, 0.4]),
            w_hh: g.constant(1, 4, vec![f32::NAN, 0.0, 0.0, 0.0]),
            bias: g.constant(1, 4, vec![0.0; 4]),
        };
        let one = g.lstm_sequence(&[x], &[layer]);
        assert!(g.value(one)[0].is_finite(), "one step never reads W_hh");
        let two = g.lstm_sequence(&[x, x], &[layer]);
        assert!(g.value(two)[0].is_nan(), "NaN in W_hh masked at t = 1");
    }

    #[test]
    fn batchnorm_train_node_exposes_stats() {
        let mut g = Graph::new();
        let x = g.constant(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let gamma = g.constant(1, 2, vec![1.0, 1.0]);
        let beta = g.constant(1, 2, vec![0.0, 0.0]);
        let y = g.batchnorm_train(x, gamma, beta, 1e-5);
        let (mean, var) = g.bn_stats(y);
        assert!((mean[0] - 2.5).abs() < 1e-5);
        assert!((mean[1] - 25.0).abs() < 1e-4);
        assert!((var[0] - 1.25).abs() < 1e-4);
        assert!((var[1] - 125.0).abs() < 1e-2);
    }
}
