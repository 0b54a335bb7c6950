//! The incremental refresh driver: applies edge batches to a graph +
//! model + embedding-table triple, keeping the table close to what a
//! from-scratch rebuild on the same stream would produce.

use crate::refresh::{RefreshPlan, RefreshPlanner};
use crate::wal::WalError;
use ehna_core::{EhnaModel, Trainer};
use ehna_tgraph::{GraphError, NodeEmbeddings, NodeId, TemporalEdge, TemporalGraph, Timestamp};
use ehna_walks::DecayKernel;
use std::fmt;

/// Errors from the streaming layer.
#[derive(Debug)]
pub enum StreamError {
    /// Graph validation failure (self-loop, bad weight, node id beyond
    /// the trained embedding table — growing the node count online is out
    /// of scope; train with node-id headroom instead).
    Graph(GraphError),
    /// Edge-log failure.
    Wal(WalError),
    /// Model/trainer failure.
    Model(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "graph error: {e}"),
            StreamError::Wal(e) => write!(f, "{e}"),
            StreamError::Model(msg) => write!(f, "model error: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        StreamError::Graph(e)
    }
}

impl From<WalError> for StreamError {
    fn from(e: WalError) -> Self {
        StreamError::Wal(e)
    }
}

/// Knobs for [`StreamProcessor`].
#[derive(Debug, Clone, Copy)]
pub struct StreamOptions {
    /// Gradient steps on each arriving batch before its rows are
    /// re-aggregated. `0` freezes the model: refresh is then pure
    /// re-aggregation and matches a full rebuild bit for bit (see
    /// `refresh_equivalence` tests).
    pub finetune_steps: usize,
    /// Every `k`-th batch refreshes *all* rows instead of just the dirty
    /// set, re-baselining any drift fine-tuning introduced on clean rows.
    /// `0` disables the escape hatch.
    pub full_rebuild_every: u64,
    /// Learning rate for streaming fine-tune steps; `None` keeps the rate
    /// the model was trained with. Online batches arrive one ingest batch
    /// at a time, so the full training rate moves shared parameters —
    /// and with them the rows *outside* the dirty set — much faster than
    /// epoch-scale training did; a reduced rate keeps clean rows close to
    /// their refreshed values between full rebuilds.
    pub finetune_lr: Option<f32>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions { finetune_steps: 1, full_rebuild_every: 0, finetune_lr: None }
    }
}

/// Summary of one applied batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Edges appended.
    pub edges: usize,
    /// Rows refreshed.
    pub refreshed: usize,
    /// Whether this batch triggered the full-rebuild escape hatch.
    pub full_rebuild: bool,
    /// Last fine-tune step's loss, when fine-tuning ran.
    pub finetune_loss: Option<f64>,
    /// The dirty-set plan (before any full-rebuild widening).
    pub plan: RefreshPlan,
}

/// Owns the evolving graph, model, and embedding table of one stream.
///
/// Per batch: append edges to the graph (merge, no full re-sort), plan
/// the dirty set, optionally fine-tune, and re-aggregate only the dirty
/// rows via [`Trainer::refresh_rows`].
///
/// Every row, the baseline table included, comes from the one node-keyed
/// inference function ([`ehna_core::refresh_rows`]): it depends on the
/// model, the graph and its node only, so the baseline of a frozen model
/// equals the `Trainer::embeddings` rows of an `ehna train --out` snapshot.
#[derive(Debug)]
pub struct StreamProcessor {
    graph: TemporalGraph,
    model: Option<EhnaModel>,
    emb: NodeEmbeddings,
    planner: RefreshPlanner,
    opts: StreamOptions,
    batches_done: u64,
}

impl StreamProcessor {
    /// Bind `model` to `graph` (padding the graph with isolated node ids
    /// up to the model's table when the model was trained with headroom)
    /// and compute the baseline table.
    ///
    /// Pins the decay kernel: a model configured with the
    /// span-derived default would otherwise re-resolve it against every
    /// grown graph, silently changing walk semantics mid-stream.
    ///
    /// # Errors
    /// A model covering fewer nodes than the graph, or a bad `finetune_lr`.
    pub fn new(
        graph: TemporalGraph,
        mut model: EhnaModel,
        opts: StreamOptions,
    ) -> Result<Self, StreamError> {
        if model.num_nodes() < graph.num_nodes() {
            return Err(StreamError::Model(format!(
                "model covers {} nodes but the graph already has {}; retrain with headroom",
                model.num_nodes(),
                graph.num_nodes()
            )));
        }
        let graph = graph.padded_to(model.num_nodes());
        if model.config.kernel.is_none() {
            let span = graph.max_time().delta(graph.min_time());
            model.config.kernel = Some(DecayKernel::exponential_for_span(span));
        }
        // Freeze batch-norm running statistics for the life of the stream:
        // fine-tune batches are tiny (one ingest batch), and at the default
        // momentum a handful of them would drag the running mean/var away
        // from the full-training estimates, shifting *every* eval-mode row
        // — not just the dirty set.
        model.bn_node.momentum = 0.0;
        model.bn_walk.momentum = 0.0;
        if let Some(lr) = opts.finetune_lr {
            if !lr.is_finite() || lr <= 0.0 {
                return Err(StreamError::Model(format!("finetune_lr must be positive, got {lr}")));
            }
            model.config.lr = lr;
        }
        let planner = RefreshPlanner::for_config(&model.config);
        let emb = NodeEmbeddings::zeros(graph.num_nodes(), model.config.dim);
        let mut sp =
            StreamProcessor { graph, model: Some(model), emb, planner, opts, batches_done: 0 };
        sp.full_refresh()?;
        Ok(sp)
    }

    /// Append one batch, fine-tune, and refresh the dirty rows.
    ///
    /// # Errors
    /// Invalid edges (including node ids beyond the trained table) or
    /// trainer failures; the processor state is unchanged on error.
    pub fn apply_batch(&mut self, batch: &[TemporalEdge]) -> Result<BatchOutcome, StreamError> {
        let new_graph = self.graph.with_edges_appended(batch)?;
        let plan = self.planner.plan(&new_graph, batch);
        let model = self.model.take().expect("model present");
        let mut trainer = Trainer::from_model(&new_graph, model).map_err(StreamError::Model)?;
        let mut finetune_loss = None;
        if self.opts.finetune_steps > 0 && !batch.is_empty() {
            let pairs: Vec<(NodeId, NodeId, Timestamp)> =
                batch.iter().map(|e| (e.src, e.dst, e.t)).collect();
            for step in 0..self.opts.finetune_steps {
                // Decorrelate walk-seed streams across batches and steps.
                let idx = self.batches_done.wrapping_mul(1_009).wrapping_add(step as u64);
                finetune_loss = Some(trainer.train_batch(&pairs, idx));
            }
        }
        let full_rebuild = self.opts.full_rebuild_every > 0
            && (self.batches_done + 1) % self.opts.full_rebuild_every == 0;
        let refreshed = if full_rebuild {
            let all: Vec<NodeId> = new_graph.nodes().collect();
            trainer.refresh_rows(&mut self.emb, &all).map_err(StreamError::Model)?;
            all.len()
        } else {
            trainer.refresh_rows(&mut self.emb, &plan.dirty).map_err(StreamError::Model)?;
            plan.dirty.len()
        };
        self.model = Some(trainer.into_model());
        self.graph = new_graph;
        self.batches_done += 1;
        Ok(BatchOutcome { edges: batch.len(), refreshed, full_rebuild, finetune_loss, plan })
    }

    /// Re-aggregate every row with the current model and graph.
    ///
    /// # Errors
    /// A model or table that does not cover the graph.
    pub fn full_refresh(&mut self) -> Result<(), StreamError> {
        let model = self.model.as_mut().expect("model present");
        let all: Vec<NodeId> = self.graph.nodes().collect();
        ehna_core::refresh_rows(model, &self.graph, &mut self.emb, &all).map_err(StreamError::Model)
    }

    /// The current embedding table.
    pub fn embeddings(&self) -> &NodeEmbeddings {
        &self.emb
    }

    /// The current graph.
    pub fn graph(&self) -> &TemporalGraph {
        &self.graph
    }

    /// The current model.
    pub fn model(&self) -> &EhnaModel {
        self.model.as_ref().expect("model present")
    }

    /// Batches applied so far.
    pub fn batches_done(&self) -> u64 {
        self.batches_done
    }

    /// Tear down into `(graph, model, embeddings)`.
    pub fn into_parts(self) -> (TemporalGraph, EhnaModel, NodeEmbeddings) {
        (self.graph, self.model.expect("model present"), self.emb)
    }
}
