//! Method selection by name, covering the baselines and all EHNA
//! variants.

use crate::CliError;
use ehna_baselines::{Ctdne, EmbeddingMethod, Htne, Line, Node2Vec, SkipGramConfig};
use ehna_core::{
    load_checkpoint_path, AggregatorKind, EhnaConfig, EhnaVariant, Trainer, TrainingReport,
};
use ehna_tgraph::ioutil::backup_path;
use ehna_tgraph::{NodeEmbeddings, TemporalGraph};
use ehna_walks::{CtdneConfig, Node2VecConfig};
use std::path::PathBuf;

/// Per-method training knobs exposed on the CLI.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Epochs (EHNA / HTNE) or SGNS passes (walk methods).
    pub epochs: usize,
    /// Walks per target / per node.
    pub num_walks: usize,
    /// Walk length.
    pub walk_length: usize,
    /// node2vec-style return parameter.
    pub p: f64,
    /// node2vec-style in-out parameter.
    pub q: f64,
    /// Seed.
    pub seed: u64,
    /// Bidirectional negative sampling (EHNA, Eq. 7).
    pub bidirectional: bool,
    /// Walk-sampling worker threads (EHNA).
    pub threads: usize,
    /// Batch-prefetch pipeline depth (EHNA); `None` keeps the
    /// [`EhnaConfig`] default.
    pub pipeline_depth: Option<usize>,
    /// Checkpoint file (EHNA): written atomically after training, and —
    /// with [`TrainOptions::checkpoint_every`] — during it.
    pub checkpoint: Option<PathBuf>,
    /// Write the checkpoint every N epochs while training (EHNA);
    /// 0 disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Resume from [`TrainOptions::checkpoint`] instead of starting
    /// fresh (EHNA).
    pub resume: bool,
    /// Node-level aggregator (EHNA); `None` keeps the [`EhnaConfig`]
    /// default (`lstm`). The `ehna-attn` method name forces `attn`.
    pub aggregator: Option<AggregatorKind>,
    /// Attention heads for the `attn` aggregator (EHNA); `None` keeps
    /// the [`EhnaConfig`] default.
    pub heads: Option<usize>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            dim: 64,
            epochs: 3,
            num_walks: 5,
            walk_length: 5,
            p: 1.0,
            q: 1.0,
            seed: 42,
            bidirectional: false,
            threads: 1,
            pipeline_depth: None,
            checkpoint: None,
            checkpoint_every: 0,
            resume: false,
            aggregator: None,
            heads: None,
        }
    }
}

/// The [`EhnaConfig`] a [`TrainOptions`] set resolves to for `variant`.
///
/// Shared by `ehna train` and `ehna stream`: a streaming session must
/// reconstruct exactly the architecture (dim, layers, aggregation,
/// attention, walk style) the checkpoint was trained with, or the
/// checkpoint loader rejects it.
pub fn ehna_config(variant: EhnaVariant, opts: &TrainOptions) -> EhnaConfig {
    let defaults = EhnaConfig::default();
    variant.configure(EhnaConfig {
        dim: opts.dim,
        num_walks: opts.num_walks,
        walk_length: opts.walk_length,
        p: opts.p,
        q: opts.q,
        epochs: opts.epochs,
        batch_size: 128,
        lr: 2e-3,
        seed: opts.seed,
        bidirectional: opts.bidirectional,
        threads: opts.threads,
        pipeline_depth: opts.pipeline_depth.unwrap_or(defaults.pipeline_depth),
        checkpoint_every: opts.checkpoint_every,
        aggregator: opts.aggregator.unwrap_or(defaults.aggregator),
        heads: opts.heads.unwrap_or(defaults.heads),
        ..defaults
    })
}

/// What a training run produced: the embeddings, and — for EHNA methods,
/// which train through [`Trainer`] — the trainer's report with per-epoch
/// losses and sample/compute/stall phase timings.
pub struct TrainOutcome {
    /// The trained node embeddings.
    pub embeddings: NodeEmbeddings,
    /// Trainer report; `None` for the baseline methods.
    pub report: Option<TrainingReport>,
    /// Non-fatal conditions the operator should see (e.g. a resume that
    /// fell back to the `.bak` checkpoint, or one that could not restore
    /// optimizer state and will not be bit-faithful).
    pub warnings: Vec<String>,
}

/// A method selected by CLI name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodName {
    /// Full EHNA or one of its Table VII variants.
    Ehna(EhnaVariant),
    /// Static node2vec baseline.
    Node2Vec,
    /// CTDNE baseline.
    Ctdne,
    /// LINE baseline.
    Line,
    /// HTNE baseline.
    Htne,
}

/// Every accepted method name, for help text.
pub const METHOD_NAMES: [&str; 9] =
    ["ehna", "ehna-na", "ehna-rw", "ehna-sl", "ehna-attn", "node2vec", "ctdne", "line", "htne"];

/// The compared methods (paper §V-B plus EHNA itself) in the column
/// order of Tables III–VI.
pub const PAPER_METHOD_ORDER: [MethodName; 5] = [
    MethodName::Line,
    MethodName::Node2Vec,
    MethodName::Ctdne,
    MethodName::Htne,
    MethodName::Ehna(EhnaVariant::Full),
];

impl MethodName {
    /// Parse a CLI method name.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "ehna" => Ok(MethodName::Ehna(EhnaVariant::Full)),
            "ehna-na" => Ok(MethodName::Ehna(EhnaVariant::NoAttention)),
            "ehna-rw" => Ok(MethodName::Ehna(EhnaVariant::StaticWalks)),
            "ehna-sl" => Ok(MethodName::Ehna(EhnaVariant::SingleLevel)),
            "ehna-attn" => Ok(MethodName::Ehna(EhnaVariant::Attention)),
            "node2vec" => Ok(MethodName::Node2Vec),
            "ctdne" => Ok(MethodName::Ctdne),
            "line" => Ok(MethodName::Line),
            "htne" => Ok(MethodName::Htne),
            other => Err(CliError::usage(format!(
                "unknown method '{other}' (expected one of: {})",
                METHOD_NAMES.join(", ")
            ))),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MethodName::Ehna(v) => v.name(),
            MethodName::Node2Vec => "Node2Vec",
            MethodName::Ctdne => "CTDNE",
            MethodName::Line => "LINE",
            MethodName::Htne => "HTNE",
        }
    }

    /// Train on `graph` with `opts`, returning only the embeddings.
    pub fn train(
        self,
        graph: &TemporalGraph,
        opts: &TrainOptions,
    ) -> Result<NodeEmbeddings, CliError> {
        self.train_full(graph, opts).map(|o| o.embeddings)
    }

    /// Train on `graph` with `opts`, keeping the trainer report when the
    /// method produces one.
    pub fn train_full(
        self,
        graph: &TemporalGraph,
        opts: &TrainOptions,
    ) -> Result<TrainOutcome, CliError> {
        if !matches!(self, MethodName::Ehna(_))
            && (opts.checkpoint.is_some() || opts.checkpoint_every > 0 || opts.resume)
        {
            return Err(CliError::usage(format!(
                "--checkpoint / --checkpoint-every / --resume only apply to EHNA methods, \
                 not {}",
                self.name()
            )));
        }
        let mut report = None;
        let mut warnings = Vec::new();
        let emb = match self {
            MethodName::Ehna(variant) => {
                let config = ehna_config(variant, opts);
                let mut trainer = if opts.resume {
                    let path = opts
                        .checkpoint
                        .as_deref()
                        .ok_or_else(|| CliError::usage("--resume requires --checkpoint PATH"))?;
                    let (ckpt, used_backup) =
                        load_checkpoint_path(path, graph, config).map_err(|e| {
                            CliError::runtime(format!("cannot resume from {}: {e}", path.display()))
                        })?;
                    if used_backup {
                        warnings.push(format!(
                            "checkpoint {} was missing or unreadable; resumed from backup {}",
                            path.display(),
                            backup_path(path).display()
                        ));
                    }
                    if let Some(w) = ckpt.resume_warning() {
                        warnings.push(w);
                    }
                    warnings.extend(ckpt.warnings.iter().cloned());
                    Trainer::from_checkpoint(graph, ckpt).map_err(CliError::usage)?
                } else {
                    Trainer::new(graph, config).map_err(CliError::usage)?
                };
                if let Some(path) = opts.checkpoint.clone() {
                    trainer.set_checkpoint_hook(Box::new(move |_epoch, t| {
                        t.checkpoint_to_path(&path)
                    }));
                }
                let r = trainer.train();
                if let Some(err) = &r.checkpoint_error {
                    return Err(CliError::runtime(format!("periodic checkpoint failed: {err}")));
                }
                // Save the final checkpoint *before* inference: embedding
                // extraction advances the trainer's RNG on the fallback
                // path, and a resumed run must continue from the post-
                // training state, not the post-inference one.
                if let Some(path) = &opts.checkpoint {
                    trainer.checkpoint_to_path(path).map_err(|e| {
                        CliError::runtime(format!(
                            "cannot write checkpoint {}: {e}",
                            path.display()
                        ))
                    })?;
                }
                report = Some(r);
                trainer.into_embeddings()
            }
            MethodName::Node2Vec => Node2Vec {
                walks: Node2VecConfig {
                    length: opts.walk_length.max(10) * 4,
                    walks_per_node: opts.num_walks,
                    p: opts.p,
                    q: opts.q,
                },
                sgns: SkipGramConfig { dim: opts.dim, epochs: opts.epochs, ..Default::default() },
                threads: 1,
            }
            .embed(graph, opts.seed),
            MethodName::Ctdne => Ctdne {
                walks: CtdneConfig { length: opts.walk_length.max(10) * 4, ..Default::default() },
                walks_per_node: opts.num_walks,
                sgns: SkipGramConfig { dim: opts.dim, epochs: opts.epochs, ..Default::default() },
                threads: 1,
            }
            .embed(graph, opts.seed),
            MethodName::Line => {
                if opts.dim % 2 != 0 {
                    return Err(CliError::usage("LINE needs an even --dim".to_string()));
                }
                Line {
                    dim: opts.dim,
                    samples_per_edge: 20 * opts.epochs.max(1),
                    ..Default::default()
                }
                .embed(graph, opts.seed)
            }
            MethodName::Htne => {
                Htne { dim: opts.dim, epochs: opts.epochs.max(1) * 2, ..Default::default() }
                    .embed(graph, opts.seed)
            }
        };
        Ok(TrainOutcome { embeddings: emb, report, warnings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;

    #[test]
    fn all_names_parse() {
        for name in METHOD_NAMES {
            assert!(MethodName::parse(name).is_ok(), "{name}");
        }
        assert!(MethodName::parse("gcn").is_err());
    }

    #[test]
    fn names_in_paper_order() {
        let names: Vec<&str> = PAPER_METHOD_ORDER.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["LINE", "Node2Vec", "CTDNE", "HTNE", "EHNA"]);
    }

    #[test]
    fn variant_names_roundtrip() {
        assert_eq!(MethodName::parse("ehna-rw").unwrap().name(), "EHNA-RW");
        assert_eq!(MethodName::parse("EHNA").unwrap().name(), "EHNA");
        assert_eq!(MethodName::parse("ehna-attn").unwrap().name(), "EHNA-ATTN");
    }

    #[test]
    fn aggregator_flags_reach_the_config() {
        let opts = TrainOptions {
            aggregator: Some(AggregatorKind::Attn),
            heads: Some(8),
            ..Default::default()
        };
        let cfg = ehna_config(EhnaVariant::Full, &opts);
        assert_eq!(cfg.aggregator, AggregatorKind::Attn);
        assert_eq!(cfg.heads, 8);
        // The ehna-attn method name forces attn regardless of the flag.
        let cfg = ehna_config(EhnaVariant::Attention, &TrainOptions::default());
        assert_eq!(cfg.aggregator, AggregatorKind::Attn);
        // And plain ehna defaults to the paper's LSTM.
        let cfg = ehna_config(EhnaVariant::Full, &TrainOptions::default());
        assert_eq!(cfg.aggregator, AggregatorKind::Lstm);
    }

    #[test]
    fn line_rejects_odd_dim() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let opts = TrainOptions { dim: 15, epochs: 1, ..Default::default() };
        assert!(MethodName::Line.train(&g, &opts).is_err());
    }

    #[test]
    fn baselines_reject_checkpoint_flags() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        for opts in [
            TrainOptions { checkpoint: Some("/tmp/x.ckpt".into()), ..Default::default() },
            TrainOptions { checkpoint_every: 1, ..Default::default() },
            TrainOptions { resume: true, ..Default::default() },
        ] {
            let err = MethodName::Htne.train(&g, &opts).unwrap_err();
            assert_eq!(err.code, 2, "{}", err.message);
            assert!(err.message.contains("EHNA"), "{}", err.message);
        }
    }

    #[test]
    fn resume_requires_checkpoint_path() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let opts = TrainOptions { resume: true, epochs: 1, ..Default::default() };
        let err = MethodName::Ehna(EhnaVariant::Full).train(&g, &opts).unwrap_err();
        assert!(err.message.contains("--checkpoint"), "{}", err.message);
    }

    fn richer_graph() -> ehna_tgraph::TemporalGraph {
        let mut b = GraphBuilder::new();
        for i in 0..10u32 {
            b.add_edge(i, (i + 1) % 11, i as i64, 1.0).unwrap();
            b.add_edge(i, (i + 4) % 11, i as i64 + 2, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_training() {
        let g = richer_graph();
        let ckpt = std::env::temp_dir()
            .join(format!("ehna_cli_method_resume_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(backup_path(&ckpt));
        let base = TrainOptions { dim: 8, num_walks: 2, walk_length: 3, ..Default::default() };
        let m = MethodName::Ehna(EhnaVariant::Full);

        let reference = m.train_full(&g, &TrainOptions { epochs: 4, ..base.clone() }).unwrap();

        let first = m
            .train_full(
                &g,
                &TrainOptions { epochs: 2, checkpoint: Some(ckpt.clone()), ..base.clone() },
            )
            .unwrap();
        assert!(first.warnings.is_empty());
        let resumed = m
            .train_full(
                &g,
                &TrainOptions {
                    epochs: 2,
                    checkpoint: Some(ckpt.clone()),
                    resume: true,
                    ..base.clone()
                },
            )
            .unwrap();
        assert!(resumed.warnings.is_empty(), "unexpected: {:?}", resumed.warnings);

        let bits = |r: &TrainOutcome| -> Vec<u64> {
            r.report.as_ref().unwrap().epoch_losses.iter().map(|l| l.to_bits()).collect()
        };
        let mut stitched = bits(&first);
        stitched.extend(bits(&resumed));
        assert_eq!(bits(&reference), stitched, "losses diverged across CLI resume");
        assert_eq!(reference.embeddings, resumed.embeddings, "embeddings diverged");
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(backup_path(&ckpt));
    }

    #[test]
    fn tiny_training_works_for_each_method() {
        let mut b = GraphBuilder::new();
        for i in 0..8u32 {
            b.add_edge(i, (i + 1) % 9, i as i64, 1.0).unwrap();
            b.add_edge(i, (i + 3) % 9, i as i64 + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let opts =
            TrainOptions { dim: 8, epochs: 1, num_walks: 2, walk_length: 3, ..Default::default() };
        for name in METHOD_NAMES {
            let m = MethodName::parse(name).unwrap();
            let e = m.train(&g, &opts).unwrap();
            assert_eq!(e.num_nodes(), g.num_nodes(), "{name}");
            assert_eq!(e.dim(), 8, "{name}");
        }
    }
}
