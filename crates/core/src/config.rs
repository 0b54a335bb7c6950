//! EHNA hyperparameters.

use ehna_walks::DecayKernel;

/// Which random-walk engine identifies historical neighborhoods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStyle {
    /// The paper's temporal walk: time-ordered interactions, decay kernel.
    Temporal,
    /// Traditional walks over the historical snapshot (no time ordering,
    /// no decay) — the EHNA-RW ablation.
    Static,
}

/// Which network aggregates the node-level stage of a historical
/// neighborhood (the walk-level stage is shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregatorKind {
    /// The paper's Algorithm 1: per-walk stacked LSTM over the node
    /// sequence (sequential in walk length).
    #[default]
    Lstm,
    /// Time2Vec temporal encoding + multi-head scaled-dot-product
    /// attention over all walk nodes at once (batched GEMMs, no
    /// sequential dependency in walk length).
    Attn,
}

impl AggregatorKind {
    /// Stable lowercase name (CLI flag values, bench rows, checkpoints).
    pub fn name(self) -> &'static str {
        match self {
            AggregatorKind::Lstm => "lstm",
            AggregatorKind::Attn => "attn",
        }
    }
}

impl std::str::FromStr for AggregatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lstm" => Ok(AggregatorKind::Lstm),
            "attn" => Ok(AggregatorKind::Attn),
            other => Err(format!("unknown aggregator '{other}' (expected lstm|attn)")),
        }
    }
}

impl std::fmt::Display for AggregatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hyperparameters of the EHNA model (paper §V-C defaults where given).
#[derive(Debug, Clone)]
pub struct EhnaConfig {
    /// Embedding (and LSTM hidden) dimensionality `d`. The paper's
    /// attention (Eq. 3/4) compares embeddings with walk representations,
    /// which ties the hidden width to `d`.
    pub dim: usize,
    /// Stacked-LSTM depth (paper: 2).
    pub lstm_layers: usize,
    /// Walks per target `k` (paper: 10).
    pub num_walks: usize,
    /// Walk length `l` (paper: 10).
    pub walk_length: usize,
    /// Return parameter `p` of the walk bias (paper grid: 0.25–4).
    pub p: f64,
    /// In-out parameter `q` of the walk bias (paper grid: 0.25–4).
    pub q: f64,
    /// Time-decay kernel; `None` derives an exponential kernel from the
    /// graph's time span (Eq. 1).
    pub kernel: Option<DecayKernel>,
    /// Safety margin `m` of the hinge loss (paper: 5).
    pub margin: f32,
    /// Negative samples per edge `Q` (paper: 5).
    pub negatives: usize,
    /// Use the bidirectional objective Eq. 7 instead of Eq. 6 — needed for
    /// bipartite networks like Tmall (§IV-D).
    pub bidirectional: bool,
    /// Adam learning rate. (The paper grid-searches plain-SGD rates of
    /// 2e-5–2e-7; with Adam and a mean-reduced loss, 1e-3-scale converges
    /// to the same objective far faster.)
    pub lr: f32,
    /// Mini-batch size (paper: 512).
    pub batch_size: usize,
    /// Training epochs over the chronological edge stream.
    pub epochs: usize,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Enable the two attention mechanisms (off = EHNA-NA).
    pub attention: bool,
    /// Walk engine (Static = EHNA-RW).
    pub walk_style: WalkStyle,
    /// Two-level aggregation (off = EHNA-SL: one single-layer LSTM over
    /// the flattened walk sequence).
    pub two_level: bool,
    /// Node-level aggregation network (see [`AggregatorKind`]).
    pub aggregator: AggregatorKind,
    /// Attention heads of the [`AggregatorKind::Attn`] node stage; must
    /// divide `dim`. Ignored by the LSTM aggregator.
    pub heads: usize,
    /// GraphSAGE-style fallback fan-out for nodes without history.
    pub fallback_samples: usize,
    /// Embedding-table init: coordinates drawn from `U(-s, s)`; `None`
    /// uses the word2vec convention `s = 0.5 / d` (which outperformed
    /// O(1) inits in our sweeps — see EXPERIMENTS.md).
    pub emb_init_scale: Option<f32>,
    /// RNG seed for init, walk sampling and negative sampling.
    pub seed: u64,
    /// Worker threads for walk sampling.
    pub threads: usize,
    /// Training-batch prefetch pipeline depth: how many sampled batches a
    /// background producer may buffer ahead of the optimization step.
    /// `0` samples synchronously on the main thread. Any depth produces
    /// bit-identical training results; the knob only trades memory for
    /// walk-sampling latency hidden behind compute. The
    /// `EHNA_PIPELINE_DEPTH` environment variable overrides this at
    /// trainer run time (CI uses it to exercise the pipelined path).
    pub pipeline_depth: usize,
    /// Fire the trainer's checkpoint hook every this many epochs
    /// (`0` disables periodic checkpointing; the hook also never fires
    /// unless one is installed via
    /// [`Trainer::set_checkpoint_hook`](crate::Trainer::set_checkpoint_hook)).
    pub checkpoint_every: usize,
}

/// Upper bound on [`EhnaConfig::pipeline_depth`]: each buffered batch
/// holds `O(batch_size * (2 + negatives) * num_walks * walk_length)`
/// sampled nodes, so unbounded lookahead is a memory foot-gun.
pub const MAX_PIPELINE_DEPTH: usize = 64;

impl Default for EhnaConfig {
    fn default() -> Self {
        EhnaConfig {
            dim: 64,
            lstm_layers: 2,
            num_walks: 10,
            walk_length: 10,
            p: 1.0,
            q: 1.0,
            kernel: None,
            margin: 5.0,
            negatives: 5,
            bidirectional: false,
            lr: 1e-3,
            batch_size: 512,
            epochs: 5,
            grad_clip: 5.0,
            attention: true,
            walk_style: WalkStyle::Temporal,
            two_level: true,
            aggregator: AggregatorKind::Lstm,
            heads: 4,
            fallback_samples: 8,
            emb_init_scale: None,
            seed: 42,
            threads: 1,
            pipeline_depth: 2,
            checkpoint_every: 0,
        }
    }
}

impl EhnaConfig {
    /// A small, fast configuration for tests and examples.
    pub fn tiny() -> Self {
        EhnaConfig {
            dim: 16,
            lstm_layers: 2,
            num_walks: 4,
            walk_length: 4,
            batch_size: 64,
            epochs: 2,
            ..Default::default()
        }
    }

    /// Validate invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dim must be positive".into());
        }
        if self.lstm_layers == 0 {
            return Err("lstm_layers must be positive".into());
        }
        if self.num_walks == 0 || self.walk_length == 0 {
            return Err("num_walks and walk_length must be positive".into());
        }
        if !finite_positive(self.p) || !finite_positive(self.q) {
            return Err("p and q must be finite and positive".into());
        }
        if !finite_positive(f64::from(self.margin)) {
            return Err("margin must be finite and positive".into());
        }
        if self.negatives == 0 {
            return Err("need at least one negative sample".into());
        }
        if !finite_positive(f64::from(self.lr)) {
            return Err("lr must be finite and positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.fallback_samples == 0 {
            return Err("fallback_samples must be positive".into());
        }
        if self.heads == 0 {
            return Err("heads must be positive".into());
        }
        if self.aggregator == AggregatorKind::Attn {
            if self.dim % self.heads != 0 {
                return Err(format!(
                    "attn aggregator: heads ({}) must divide dim ({})",
                    self.heads, self.dim
                ));
            }
            if self.dim % 2 != 0 {
                return Err("attn aggregator: dim must be even (Time2Vec sin/cos pairs)".into());
            }
        }
        if let Some(s) = self.emb_init_scale {
            if s <= 0.0 || !s.is_finite() {
                return Err("emb_init_scale must be positive".into());
            }
        }
        if self.pipeline_depth > MAX_PIPELINE_DEPTH {
            return Err(format!("pipeline_depth must be <= {MAX_PIPELINE_DEPTH}"));
        }
        Ok(())
    }

    /// The pipeline depth the trainer should run with: the
    /// `EHNA_PIPELINE_DEPTH` environment variable when set to an integer
    /// in `0..=`[`MAX_PIPELINE_DEPTH`], otherwise
    /// [`EhnaConfig::pipeline_depth`]. Results are depth-invariant, so the
    /// override can never change what a run computes — only how it
    /// schedules sampling.
    pub fn effective_pipeline_depth(&self) -> usize {
        match std::env::var("EHNA_PIPELINE_DEPTH").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(d) if d <= MAX_PIPELINE_DEPTH => d,
            _ => self.pipeline_depth,
        }
    }
}

/// `x > 0` and finite: a NaN fails every comparison, so `x <= 0.0` alone
/// would let it through.
fn finite_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EhnaConfig::default();
        assert_eq!(c.num_walks, 10);
        assert_eq!(c.walk_length, 10);
        assert_eq!(c.margin, 5.0);
        assert_eq!(c.negatives, 5);
        assert_eq!(c.lstm_layers, 2);
        assert_eq!(c.batch_size, 512);
        assert!(c.attention);
        assert!(c.two_level);
        assert_eq!(c.walk_style, WalkStyle::Temporal);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn tiny_is_valid() {
        assert!(EhnaConfig::tiny().validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        for f in [
            |c: &mut EhnaConfig| c.dim = 0,
            |c: &mut EhnaConfig| c.lstm_layers = 0,
            |c: &mut EhnaConfig| c.num_walks = 0,
            |c: &mut EhnaConfig| c.p = 0.0,
            |c: &mut EhnaConfig| c.margin = 0.0,
            |c: &mut EhnaConfig| c.negatives = 0,
            |c: &mut EhnaConfig| c.lr = -1.0,
            // NaN fails every comparison, so `<= 0.0` alone lets it in.
            |c: &mut EhnaConfig| c.p = f64::NAN,
            |c: &mut EhnaConfig| c.q = f64::NAN,
            |c: &mut EhnaConfig| c.margin = f32::NAN,
            |c: &mut EhnaConfig| c.lr = f32::NAN,
            |c: &mut EhnaConfig| c.q = f64::INFINITY,
            |c: &mut EhnaConfig| c.lr = f32::INFINITY,
            |c: &mut EhnaConfig| c.batch_size = 0,
            |c: &mut EhnaConfig| c.fallback_samples = 0,
            |c: &mut EhnaConfig| c.emb_init_scale = Some(-1.0),
            |c: &mut EhnaConfig| c.pipeline_depth = MAX_PIPELINE_DEPTH + 1,
            |c: &mut EhnaConfig| c.heads = 0,
            |c: &mut EhnaConfig| {
                c.aggregator = AggregatorKind::Attn;
                c.heads = 5; // does not divide dim = 64
            },
            |c: &mut EhnaConfig| {
                c.aggregator = AggregatorKind::Attn;
                c.dim = 9; // odd: no sin/cos pairing
                c.heads = 3;
            },
        ] {
            let mut c = EhnaConfig::default();
            f(&mut c);
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn aggregator_kind_round_trips_through_names() {
        for kind in [AggregatorKind::Lstm, AggregatorKind::Attn] {
            assert_eq!(kind.name().parse::<AggregatorKind>(), Ok(kind));
        }
        assert!("gru".parse::<AggregatorKind>().is_err());
    }

    #[test]
    fn attn_config_valid_with_dividing_heads() {
        let c = EhnaConfig { aggregator: AggregatorKind::Attn, ..EhnaConfig::tiny() };
        assert!(c.validate().is_ok());
    }
}
