//! Neural layers composed from [`Graph`] ops: dense, LSTM (single cell and
//! stacked), and batch normalization — the building blocks of the EHNA
//! aggregator (paper Algorithm 1).

use crate::graph::{Graph, LstmWeights, Var};
use crate::init;
use crate::store::{ParamId, ParamStore};
use rand::Rng;

/// Fully-connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Register a Xavier-initialized dense layer in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.add_param(
            format!("{name}.w"),
            in_dim,
            out_dim,
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.add_param(format!("{name}.b"), 1, out_dim, init::zeros(out_dim));
        Linear { w, b, in_dim, out_dim }
    }

    /// Forward `x [batch, in_dim] -> [batch, out_dim]` (fused
    /// bias-seeded GEMM).
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        assert_eq!(x.cols(), self.in_dim, "linear input width");
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        g.affine(x, w, b)
    }
}

/// One LSTM layer's parameters; processes whole sequences batch-first.
///
/// Gate layout in the fused weight matrices is `[i | f | g | o]`, each
/// block `hidden` wide. The forget-gate bias is initialized to 1 (standard
/// remedy against early vanishing memories).
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    bias: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Hidden width.
    pub hidden: usize,
}

impl LstmCell {
    /// Register an LSTM cell in `store`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Self {
        let w_ih = store.add_param(
            format!("{name}.w_ih"),
            in_dim,
            4 * hidden,
            init::xavier_uniform(in_dim, 4 * hidden, rng),
        );
        let w_hh = store.add_param(
            format!("{name}.w_hh"),
            hidden,
            4 * hidden,
            init::xavier_uniform(hidden, 4 * hidden, rng),
        );
        let mut b = init::zeros(4 * hidden);
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0; // forget-gate bias
        }
        let bias = store.add_param(format!("{name}.b"), 1, 4 * hidden, b);
        LstmCell { w_ih, w_hh, bias, in_dim, hidden }
    }

    /// This cell's weights as tape leaves.
    pub fn weights(&self, g: &mut Graph, store: &ParamStore) -> LstmWeights {
        LstmWeights {
            w_ih: g.param(store, self.w_ih),
            w_hh: g.param(store, self.w_hh),
            bias: g.param(store, self.bias),
        }
    }

    /// One step: `(x [batch,in], h [batch,hidden], c [batch,hidden])`
    /// → `(h', c')`. Four tape nodes: one fused gate preactivation
    /// (`x·W_ih + h·W_hh + b`), one fused cell kernel, two state slices.
    /// The per-step reference that [`Graph::lstm_sequence`] reproduces
    /// bit for bit; sequences run through the fused op instead.
    pub fn step(&self, g: &mut Graph, store: &ParamStore, x: Var, h: Var, c: Var) -> (Var, Var) {
        assert_eq!(x.cols(), self.in_dim, "lstm input width");
        assert_eq!(h.cols(), self.hidden, "lstm hidden width");
        let w = self.weights(g, store);
        let pre = g.affine2(x, w.w_ih, h, w.w_hh, w.bias);
        let hc = g.lstm_step(pre, c);
        let hd = self.hidden;
        let h_new = g.slice_cols(hc, 0, hd);
        let c_new = g.slice_cols(hc, hd, 2 * hd);
        (h_new, c_new)
    }

    /// Run a whole sequence (`steps[t]` is `[batch, in_dim]`), starting
    /// from zero state; returns the final hidden state. One fused
    /// [`Graph::lstm_sequence`] node.
    pub fn forward_sequence(&self, g: &mut Graph, store: &ParamStore, steps: &[Var]) -> Var {
        let w = self.weights(g, store);
        g.lstm_sequence(steps, &[w])
    }
}

/// A stack of LSTM layers: layer `i+1` consumes the per-step hidden states
/// of layer `i`. The paper's aggregator uses a 2-layer stack (§V-C).
#[derive(Debug, Clone)]
pub struct StackedLstm {
    layers: Vec<LstmCell>,
}

impl StackedLstm {
    /// Register `num_layers` stacked cells. The first maps `in_dim →
    /// hidden`, the rest `hidden → hidden`.
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        num_layers: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_layers >= 1, "need at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let d = if l == 0 { in_dim } else { hidden };
            layers.push(LstmCell::new(store, &format!("{name}.l{l}"), d, hidden, rng));
        }
        StackedLstm { layers }
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.layers[0].hidden
    }

    /// The stacked cells, bottom first.
    pub fn layers(&self) -> &[LstmCell] {
        &self.layers
    }

    /// Run the stack over a sequence; returns the top layer's final hidden
    /// state `[batch, hidden]`. One fused [`Graph::lstm_sequence`] node.
    pub fn forward_sequence(&self, g: &mut Graph, store: &ParamStore, steps: &[Var]) -> Var {
        let weights: Vec<LstmWeights> = self.layers.iter().map(|l| l.weights(g, store)).collect();
        g.lstm_sequence(steps, &weights)
    }
}

/// Batch normalization over the batch (row) dimension, with affine
/// parameters, running statistics for inference, and full gradient flow
/// through the batch statistics in training mode (paper's `BN(·)`).
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: ParamId,
    beta: ParamId,
    /// Feature width.
    pub dim: usize,
    /// Numerical floor added to the variance.
    pub eps: f32,
    /// Exponential-moving-average factor for running statistics.
    pub momentum: f32,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    initialized: bool,
}

impl BatchNorm1d {
    /// Register a batch-norm layer (γ=1, β=0).
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add_param(format!("{name}.gamma"), 1, dim, init::ones(dim));
        let beta = store.add_param(format!("{name}.beta"), 1, dim, init::zeros(dim));
        BatchNorm1d {
            gamma,
            beta,
            dim,
            eps: 1e-5,
            momentum: 0.1,
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            initialized: false,
        }
    }

    /// Training-mode forward: whitens with batch statistics (gradients flow
    /// through mean and variance) and updates the running statistics. One
    /// fused tape node replaces the 9-op composite.
    pub fn forward_train(&mut self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        assert_eq!(x.cols(), self.dim, "batchnorm width");
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        let y = g.batchnorm_train(x, gamma, beta, self.eps);
        let (bm, bv) = g.bn_stats(y);
        if self.initialized {
            for j in 0..self.dim {
                self.running_mean[j] =
                    (1.0 - self.momentum) * self.running_mean[j] + self.momentum * bm[j];
                self.running_var[j] =
                    (1.0 - self.momentum) * self.running_var[j] + self.momentum * bv[j];
            }
        } else {
            self.running_mean.copy_from_slice(bm);
            self.running_var.copy_from_slice(bv);
            self.initialized = true;
        }
        y
    }

    /// Inference-mode forward: whitens with the running statistics
    /// (fused; the running stats enter as constants, not tape nodes).
    pub fn forward_eval(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        assert_eq!(x.cols(), self.dim, "batchnorm width");
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.batchnorm_eval(x, gamma, beta, &self.running_mean, &self.running_var, self.eps)
    }

    /// Snapshot the running statistics `(mean, var, initialized)` for
    /// checkpointing.
    pub fn running_stats(&self) -> (&[f32], &[f32], bool) {
        (&self.running_mean, &self.running_var, self.initialized)
    }

    /// Restore running statistics from a checkpoint.
    ///
    /// # Panics
    /// Panics if the lengths differ from the layer width.
    pub fn set_running_stats(&mut self, mean: &[f32], var: &[f32], initialized: bool) {
        assert_eq!(mean.len(), self.dim, "mean width");
        assert_eq!(var.len(), self.dim, "var width");
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
        self.initialized = initialized;
    }
}

/// TGAT-style functional time encoding (Time2Vec / TimeKernel): a column
/// of (normalized) time deltas maps through learned frequencies to
/// `[sin(t·w + b) | cos(t·w + b)] / √(1/k)` with `k = out_dim / 2`.
///
/// Frequencies are initialized geometrically between one cycle over the
/// unit range and a fast `MAX_FREQ_CYCLES`-cycle band, giving the encoder
/// multi-resolution coverage of the normalized `(0, 1]` delta range from
/// the start (the TGAT `1/10^linspace` idea, rescaled for unit inputs);
/// training then adapts them.
#[derive(Debug, Clone)]
pub struct Time2Vec {
    w: ParamId,
    b: ParamId,
    /// Output width (2 · frequency count).
    pub out_dim: usize,
}

impl Time2Vec {
    /// Fastest initial frequency, in cycles per unit of input range.
    const MAX_FREQ_CYCLES: f32 = 64.0;

    /// Register a Time2Vec encoder. `out_dim` must be even and ≥ 2.
    pub fn new(store: &mut ParamStore, name: &str, out_dim: usize) -> Self {
        assert!(out_dim >= 2 && out_dim % 2 == 0, "Time2Vec output width must be even");
        let k = out_dim / 2;
        let tau = std::f32::consts::TAU;
        let freqs: Vec<f32> = (0..k)
            .map(|j| {
                let frac = if k > 1 { j as f32 / (k - 1) as f32 } else { 0.0 };
                tau * Self::MAX_FREQ_CYCLES.powf(frac)
            })
            .collect();
        let w = store.add_param(format!("{name}.w"), 1, k, freqs);
        let b = store.add_param(format!("{name}.b"), 1, k, init::zeros(k));
        Time2Vec { w, b, out_dim }
    }

    /// Forward `t [m,1] -> [m, out_dim]`: frequency preactivation
    /// `t·w + b`, then the fused `[sin | cos]` encoding.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, t: Var) -> Var {
        assert_eq!(t.cols(), 1, "Time2Vec input must be a single column of deltas");
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let pre = g.affine(t, w, b);
        g.time2vec(pre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        // Set bias to something visible.
        store.value_mut(lin.b).copy_from_slice(&[10.0, 20.0]);
        let mut g = Graph::new();
        let x = g.constant(1, 3, vec![0.0, 0.0, 0.0]);
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y), &[10.0, 20.0]);
    }

    #[test]
    fn lstm_step_shapes_and_bounds() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cell = LstmCell::new(&mut store, "lstm", 4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(2, 4, vec![0.5; 8]);
        let h = g.constant(2, 3, vec![0.0; 6]);
        let c = g.constant(2, 3, vec![0.0; 6]);
        let (h1, c1) = cell.step(&mut g, &store, x, h, c);
        assert_eq!((h1.rows(), h1.cols()), (2, 3));
        assert_eq!((c1.rows(), c1.cols()), (2, 3));
        // h = o * tanh(c) is bounded by (-1, 1).
        assert!(g.value(h1).iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn lstm_sequence_depends_on_order() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let cell = LstmCell::new(&mut store, "lstm", 2, 4, &mut rng);
        let mut g = Graph::new();
        let a = g.constant(1, 2, vec![1.0, 0.0]);
        let b = g.constant(1, 2, vec![0.0, 1.0]);
        let h_ab = cell.forward_sequence(&mut g, &store, &[a, b]);
        let h_ba = cell.forward_sequence(&mut g, &store, &[b, a]);
        let (va, vb) = (g.value(h_ab).to_vec(), g.value(h_ba).to_vec());
        assert_ne!(va, vb, "LSTM must be order-sensitive");
    }

    #[test]
    fn stacked_lstm_runs_and_differs_from_single() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let stack = StackedLstm::new(&mut store, "s", 2, 3, 2, &mut rng);
        assert_eq!(stack.num_layers(), 2);
        let mut g = Graph::new();
        let x0 = g.constant(2, 2, vec![0.3, -0.1, 0.9, 0.2]);
        let x1 = g.constant(2, 2, vec![0.0, 0.4, -0.5, 0.1]);
        let top = stack.forward_sequence(&mut g, &store, &[x0, x1]);
        assert_eq!((top.rows(), top.cols()), (2, 3));
        // Gradients flow to the *first* layer through the stack.
        let loss = g.sum_all(top);
        g.backward(loss);
        g.write_grads(&mut store);
        let first_w = store.grad(stack.layers[0].w_ih);
        assert!(first_w.iter().any(|&v| v != 0.0), "no grad reached layer 0");
    }

    #[test]
    fn batchnorm_train_whitens() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 2);
        let mut g = Graph::new();
        let x = g.constant(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let y = bn.forward_train(&mut g, &store, x);
        let v = g.value(y);
        // Each column ~zero-mean, ~unit variance.
        for j in 0..2 {
            let col: Vec<f32> = (0..4).map(|i| v[i * 2 + j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|c| (c - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4, "col {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "col {j} var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 1);
        {
            let mut g = Graph::new();
            let x = g.constant(4, 1, vec![0.0, 2.0, 4.0, 6.0]); // mean 3, var 5
            bn.forward_train(&mut g, &store, x);
        }
        let mut g = Graph::new();
        let x = g.constant(1, 1, vec![3.0]);
        let y = bn.forward_eval(&mut g, &store, x);
        // First batch seeds the running stats exactly: (3-3)/sqrt(5) = 0.
        assert!(g.value(y)[0].abs() < 1e-4);
    }
}
