//! Mini-batch training over the chronological edge stream (paper §IV-D),
//! and the final inference pass producing node embeddings.

use crate::aggregate::{aggregate_batch, aggregate_fallback};
use crate::checkpoint::{self, LoadedCheckpoint};
use crate::config::EhnaConfig;
use crate::infer::{embed_targets, latest_targets, refresh_rows_on};
use crate::model::EhnaModel;
use crate::negative::NegativeSampler;
use ehna_nn::optim::{clip_grad_norm, Adam};
use ehna_nn::Graph;
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph, Timestamp};
use ehna_walks::{BatchPlan, BatchPrefetcher, NeighborhoodSampler, PrefetchedBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall-clock decomposition of one training epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Walk-sampling time, summed over prefetch producer batches. With an
    /// overlapping pipeline this runs concurrently with compute, so it can
    /// exceed the epoch's elapsed wall-clock.
    pub sample_time: Duration,
    /// Main-thread forward/backward/update time.
    pub compute_time: Duration,
    /// Main-thread time stalled waiting on the prefetcher. Zero when
    /// `pipeline_depth == 0` (the synchronous path samples inline, so the
    /// whole `sample_time` is the stall).
    pub prefetch_stall_time: Duration,
}

impl PhaseTimings {
    fn add(&mut self, other: PhaseTimings) {
        self.sample_time += other.sample_time;
        self.compute_time += other.compute_time;
        self.prefetch_stall_time += other.prefetch_stall_time;
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Edge-weighted mean batch loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Total processed batches.
    pub batches: usize,
    /// Wall-clock training time.
    pub wall_time: Duration,
    /// Wall-clock time per epoch (the Table VIII metric).
    pub epoch_times: Vec<Duration>,
    /// Per-epoch sample/compute/stall decomposition of `epoch_times`.
    pub phase_timings: Vec<PhaseTimings>,
    /// First error the periodic checkpoint hook returned, if any.
    /// Training continues past a failed checkpoint (losing a checkpoint
    /// must not waste the epochs), but the hook is not retried and the
    /// caller should surface the failure loudly.
    pub checkpoint_error: Option<String>,
}

impl TrainingReport {
    /// Phase timings summed over all epochs.
    pub fn total_phase_timings(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for p in &self.phase_timings {
            total.add(*p);
        }
        total
    }
}

/// Periodic checkpoint callback: receives the just-completed epoch
/// number (1-based, lifetime count across resumes) and the trainer, and
/// typically calls [`Trainer::save_checkpoint`] or
/// [`Trainer::checkpoint_to_path`]. Fired from [`Trainer::train`] every
/// [`EhnaConfig::checkpoint_every`] epochs.
pub type CheckpointHook<'g> = Box<dyn FnMut(u64, &Trainer<'g>) -> std::io::Result<()> + 'g>;

/// Drives EHNA training on one temporal graph.
pub struct Trainer<'g> {
    graph: &'g TemporalGraph,
    model: EhnaModel,
    negative: NegativeSampler,
    optimizer: Adam,
    rng: StdRng,
    epoch_counter: u64,
    checkpoint_hook: Option<CheckpointHook<'g>>,
    /// Reusable autodiff tape: recycled after every training batch and
    /// inference chunk so steady state allocates no per-batch buffers.
    tape: Graph,
}

impl<'g> Trainer<'g> {
    /// Initialize model, negative sampler, and optimizer.
    ///
    /// # Errors
    /// Propagates config validation failures.
    pub fn new(graph: &'g TemporalGraph, config: EhnaConfig) -> Result<Self, String> {
        if graph.num_edges() == 0 {
            return Err("graph has no edges".into());
        }
        // The model validates the config, so Adam never sees a bad lr.
        Self::from_model(graph, EhnaModel::new(graph, config)?)
    }

    /// Resume from an existing (e.g. checkpoint-restored) model *without*
    /// trainer state: the optimizer restarts fresh and the RNG is
    /// re-seeded, so the continuation is not bit-faithful — prefer
    /// [`Trainer::from_checkpoint`] with a full trainer checkpoint for that.
    ///
    /// Epoch accounting does continue: `model.epochs_trained` seeds the
    /// epoch counter, so the resumed run's `(seed, epoch, batch)`
    /// walk-seed streams pick up where training stopped instead of
    /// correlating new walks with epoch 1's, and the RNG seed is salted
    /// with the same count so negative draws don't replay epoch 1's
    /// stream either.
    ///
    /// # Errors
    /// Rejects a model whose embedding table does not cover `graph`.
    pub fn from_model(graph: &'g TemporalGraph, model: EhnaModel) -> Result<Self, String> {
        if model.num_nodes() != graph.num_nodes() {
            return Err(format!(
                "model covers {} nodes, graph has {}",
                model.num_nodes(),
                graph.num_nodes()
            ));
        }
        let rng_seed = model
            .config
            .seed
            .wrapping_add(0x5EED)
            .wrapping_add(model.epochs_trained.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rng = StdRng::seed_from_u64(rng_seed);
        let optimizer = Adam::new(model.config.lr);
        let epoch_counter = model.epochs_trained;
        ehna_nn::kernels::set_threads(ehna_nn::kernels::resolve_threads(model.config.threads));
        Ok(Trainer {
            graph,
            negative: NegativeSampler::new(graph).map_err(|e| e.to_string())?,
            model,
            optimizer,
            rng,
            epoch_counter,
            checkpoint_hook: None,
            tape: Graph::new(),
        })
    }

    /// Resume from a loaded checkpoint. With trainer state present (a
    /// file written by [`Trainer::save_checkpoint`]) the optimizer
    /// moments, step count, RNG position, and epoch counter are restored
    /// exactly, making the continued run bit-identical to one that never
    /// stopped. Without it (a model-only save) this degrades to
    /// [`Trainer::from_model`] — check
    /// [`LoadedCheckpoint::resume_warning`] before consuming the
    /// checkpoint and surface it to the operator.
    ///
    /// # Errors
    /// Rejects a model whose embedding table does not cover `graph`.
    pub fn from_checkpoint(
        graph: &'g TemporalGraph,
        ckpt: LoadedCheckpoint,
    ) -> Result<Self, String> {
        let LoadedCheckpoint { model, state, .. } = ckpt;
        let mut trainer = Self::from_model(graph, model)?;
        if let Some(state) = state {
            trainer.rng = StdRng::from_state(state.rng_state);
            trainer.optimizer = state.optimizer;
        }
        Ok(trainer)
    }

    /// The model under training.
    pub fn model(&self) -> &EhnaModel {
        &self.model
    }

    /// Completed training epochs over the model's lifetime (continues
    /// across checkpoint/resume boundaries).
    pub fn epochs_trained(&self) -> u64 {
        self.epoch_counter
    }

    /// Install the periodic checkpoint callback; it fires after every
    /// [`EhnaConfig::checkpoint_every`]-th epoch during
    /// [`Trainer::train`]. Replaces any previous hook.
    pub fn set_checkpoint_hook(&mut self, hook: CheckpointHook<'g>) {
        self.checkpoint_hook = Some(hook);
    }

    /// Serialize a full checkpoint — model, optimizer moments, RNG
    /// position, epoch count — from which [`Trainer::from_checkpoint`]
    /// resumes bit-faithfully.
    ///
    /// # Errors
    /// IO failures, or counts that overflow the format's fields.
    pub fn save_checkpoint<W: Write>(&self, w: W) -> std::io::Result<()> {
        let state = Some((&self.optimizer, self.rng.state()));
        checkpoint::write_checkpoint(w, &self.model, state)
    }

    /// [`Trainer::save_checkpoint`] through the crash-safe persistence
    /// discipline: tmp file + fsync + `.bak` rotation + atomic rename
    /// ([`ehna_tgraph::ioutil::atomic_write_path`]), so a crash at any byte
    /// leaves a loadable file for
    /// [`checkpoint::load_checkpoint_path`](crate::load_checkpoint_path).
    ///
    /// # Errors
    /// IO failures; the previous checkpoint (if any) survives them.
    pub fn checkpoint_to_path(&self, path: &Path) -> std::io::Result<()> {
        ehna_tgraph::ioutil::atomic_write_path(path, |w| self.save_checkpoint(w))
    }

    /// Train for the configured number of epochs, firing the checkpoint
    /// hook (if installed) every [`EhnaConfig::checkpoint_every`] epochs.
    pub fn train(&mut self) -> TrainingReport {
        let start = Instant::now();
        let mut epoch_losses = Vec::new();
        let mut epoch_times = Vec::new();
        let mut phase_timings = Vec::new();
        let mut batches = 0usize;
        let mut checkpoint_error = None;
        let every = self.model.config.checkpoint_every;
        for _ in 0..self.model.config.epochs {
            let t0 = Instant::now();
            let (loss, nb, phases) = self.run_epoch();
            epoch_times.push(t0.elapsed());
            epoch_losses.push(loss);
            phase_timings.push(phases);
            batches += nb;
            if every > 0 && self.epoch_counter % every as u64 == 0 && checkpoint_error.is_none() {
                // Temporarily take the hook so it can borrow `&self`.
                if let Some(mut hook) = self.checkpoint_hook.take() {
                    if let Err(e) = hook(self.epoch_counter, self) {
                        checkpoint_error =
                            Some(format!("checkpoint at epoch {}: {e}", self.epoch_counter));
                    }
                    self.checkpoint_hook = Some(hook);
                }
            }
        }
        TrainingReport {
            epoch_losses,
            batches,
            wall_time: start.elapsed(),
            epoch_times,
            phase_timings,
            checkpoint_error,
        }
    }

    /// One pass over all edges in chronological order. Returns
    /// `(edge-weighted mean batch loss, batch count)`.
    pub fn train_epoch(&mut self) -> (f64, usize) {
        let (loss, batches, _) = self.run_epoch();
        (loss, batches)
    }

    /// Per-item walk stream base for `(epoch_counter, batch_idx)`.
    fn walk_seed(&self, batch_idx: u64) -> u64 {
        self.model
            .config
            .seed
            .wrapping_mul(0x9E37)
            .wrapping_add(self.epoch_counter.wrapping_mul(1_000_003).wrapping_add(batch_idx))
    }

    /// The epoch driver behind [`Trainer::train_epoch`]: lay out a
    /// deterministic sampling plan for every batch, then stream the plans
    /// through a [`BatchPrefetcher`] so walk sampling for batch `N+1`
    /// overlaps the main-thread optimization step of batch `N`.
    ///
    /// Negative draws are hoisted into this epoch-start pass: the
    /// main-thread RNG fully determines every batch's negatives before any
    /// sampling starts, so the prefetcher owns a pure, replayable plan and
    /// pipeline depth or thread count cannot perturb the random streams —
    /// training is bit-identical for every `pipeline_depth`.
    fn run_epoch(&mut self) -> (f64, usize, PhaseTimings) {
        self.epoch_counter += 1;
        self.model.epochs_trained = self.epoch_counter;
        let bs = self.model.config.batch_size;
        let q = self.model.config.negatives;
        let threads = self.model.config.threads;
        let depth = self.model.config.pipeline_depth;
        let edges = self.graph.edges();
        // The trainer RNG draws every batch's negatives, then the fallback's
        // draws batch by batch; taken out so `compute_batch` can borrow it.
        let mut rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));

        let mut plans: Vec<BatchPlan> = Vec::with_capacity(edges.len().div_ceil(bs));
        for (batch_idx, chunk) in edges.chunks(bs).enumerate() {
            let pairs: Vec<(NodeId, NodeId, Timestamp)> =
                chunk.iter().map(|e| (e.src, e.dst, e.t)).collect();
            // q-major so row `q*b + i` pairs with edge `i`.
            let mut negatives: Vec<(NodeId, Timestamp)> = Vec::with_capacity(chunk.len() * q);
            for _ in 0..q {
                for e in chunk {
                    negatives.push((self.negative.sample(e.src, e.dst, &mut rng), e.t));
                }
            }
            plans.push(BatchPlan { pairs, negatives, walk_seed: self.walk_seed(batch_idx as u64) });
        }

        let sampler = NeighborhoodSampler::new(
            self.graph,
            self.model.walk_config(self.graph),
            self.model.config.num_walks,
        );
        let prefetcher = BatchPrefetcher::new(&sampler, depth, threads);
        let mut batch_losses: Vec<(f64, usize)> = Vec::with_capacity(plans.len());
        let stats = prefetcher.run(plans, |_, batch| {
            let edges_in_batch = batch.pairs.len();
            let loss = self.compute_batch(batch, &mut rng);
            batch_losses.push((loss, edges_in_batch));
        });
        self.rng = rng;
        let phases = PhaseTimings {
            sample_time: stats.sample_time,
            compute_time: stats.compute_time,
            prefetch_stall_time: stats.stall_time,
        };
        (epoch_loss_mean(&batch_losses), batch_losses.len(), phases)
    }

    /// One optimization step on a batch of target edges, sampling walks
    /// synchronously. Returns the batch loss (mean hinge over all negative
    /// comparisons). The epoch loop goes through the prefetcher instead;
    /// this entry point serves single-step callers: the stream fine-tune
    /// (`ehna_stream::StreamProcessor`, one call per applied batch),
    /// benches and diagnostics.
    ///
    /// Negatives and the fallback's draws come from an RNG keyed on
    /// `(seed, epochs trained, batch_idx)`, not from the trainer RNG.
    pub fn train_batch(&mut self, edges: &[(NodeId, NodeId, Timestamp)], batch_idx: u64) -> f64 {
        let (plan, mut rng) = self.batch_plan(edges, batch_idx);
        let sampler = NeighborhoodSampler::new(
            self.graph,
            self.model.walk_config(self.graph),
            self.model.config.num_walks,
        );
        let batch = BatchPrefetcher::new(&sampler, 0, self.model.config.threads).sample_plan(plan);
        self.compute_batch(batch, &mut rng)
    }

    /// [`Trainer::train_batch`]'s plan, and its RNG after the negatives.
    fn batch_plan(&self, edges: &[(NodeId, NodeId, Timestamp)], idx: u64) -> (BatchPlan, StdRng) {
        let walk_seed = self.walk_seed(idx);
        let mut rng = StdRng::seed_from_u64(walk_seed ^ BATCH_NEGATIVE_SALT);
        let q = self.model.config.negatives;
        let mut negatives: Vec<(NodeId, Timestamp)> = Vec::with_capacity(edges.len() * q);
        for _ in 0..q {
            for &(x, y, t) in edges {
                negatives.push((self.negative.sample(x, y, &mut rng), t));
            }
        }
        (BatchPlan { pairs: edges.to_vec(), negatives, walk_seed }, rng)
    }

    /// Forward/backward/update on a presampled batch. Historical
    /// neighborhoods for the endpoints (`hns`, walks strictly before each
    /// edge's time) and for negatives with history (`neg_hns`) come from
    /// the prefetcher; negatives with identifiable history go through the
    /// *same* walk-aggregation network as the targets (sharing the batch
    /// statistics) while history-less nodes take the GraphSAGE-style
    /// fallback — routing them differently would let the margin loss
    /// separate positives from negatives by network pathway instead of by
    /// node identity.
    fn compute_batch(&mut self, batch: PrefetchedBatch, rng: &mut StdRng) -> f64 {
        let cfg = &self.model.config;
        let q = cfg.negatives;
        let margin = cfg.margin;
        let bidirectional = cfg.bidirectional;
        let PrefetchedBatch { pairs, hns, neg_hns, fb_negs, neg_slot, .. } = batch;
        let b = pairs.len();
        let num_agg_negs = neg_hns.len();

        // Forward. Targets and aggregatable negatives share one
        // aggregation batch (and thus batch-norm statistics). The tape is
        // taken from (and recycled back to) the trainer so successive
        // batches reuse its buffers instead of reallocating.
        let mut g = std::mem::take(&mut self.tape);
        let mut all_hns = hns;
        all_hns.extend(neg_hns);
        let z_all = aggregate_batch(&mut self.model, &mut g, &all_hns, true);
        let z_x = g.slice_rows(z_all, 0, b);
        let z_y = g.slice_rows(z_all, b, 2 * b);
        let z_fb = if fb_negs.is_empty() {
            None
        } else {
            Some(aggregate_fallback(&self.model, &mut g, self.graph, &fb_negs, rng))
        };
        // Reassemble Z_n in the original q-major negative order.
        let z_n = match z_fb {
            None => {
                let rows: Vec<u32> = neg_slot.iter().map(|&(_, i)| 2 * b as u32 + i).collect();
                g.select_rows(z_all, &rows)
            }
            Some(fb) => {
                // Stack [aggregated | fallback] then select.
                let combined = if num_agg_negs == 0 {
                    fb
                } else {
                    let agg_part = g.slice_rows(z_all, 2 * b, 2 * b + num_agg_negs);
                    g.concat_rows(&[agg_part, fb])
                };
                let offset = num_agg_negs as u32;
                let rows: Vec<u32> =
                    neg_slot.iter().map(|&(agg, i)| if agg { i } else { offset + i }).collect();
                g.select_rows(combined, &rows)
            }
        };

        let diff_pos = g.sub(z_x, z_y);
        let d_pos = g.row_sq_norms(diff_pos);
        let d_pos_rep = repeat_rows(&mut g, d_pos, q);
        let z_x_rep = repeat_rows(&mut g, z_x, q);
        let diff_neg = g.sub(z_x_rep, z_n);
        let d_neg = g.row_sq_norms(diff_neg);
        let gap = g.sub(d_pos_rep, d_neg);
        let gap = g.add_scalar(gap, margin);
        let hinge = g.relu(gap);
        let loss = if bidirectional {
            // Eq. 7: mirror the comparison from the y side with the same
            // negative set.
            let z_y_rep = repeat_rows(&mut g, z_y, q);
            let diff_neg_y = g.sub(z_y_rep, z_n);
            let d_neg_y = g.row_sq_norms(diff_neg_y);
            let gap_y = g.sub(d_pos_rep, d_neg_y);
            let gap_y = g.add_scalar(gap_y, margin);
            let hinge_y = g.relu(gap_y);
            let l1 = g.mean_all(hinge);
            let l2 = g.mean_all(hinge_y);
            let s = g.add(l1, l2);
            g.scale(s, 0.5)
        } else {
            g.mean_all(hinge)
        };
        let loss_value = g.value(loss)[0] as f64;

        // Backward + update.
        g.backward(loss);
        g.write_grads(&mut self.model.store);
        g.recycle();
        self.tape = g;
        clip_grad_norm(&mut self.model.store, self.model.config.grad_clip);
        self.optimizer.step(&mut self.model.store);
        loss_value
    }

    /// Final inference (paper §IV-D last paragraph): aggregate every node
    /// once more against its most recent interaction and use `z` as the
    /// final embedding; nodes without any interaction go through the
    /// GraphSAGE-style fallback. Batch-norm runs in eval mode; rows are
    /// node-keyed and the trainer RNG is not touched.
    pub fn embeddings(&mut self) -> NodeEmbeddings {
        let targets = latest_targets(self.graph, self.graph.nodes());
        self.embed_all(&targets)
    }

    /// Aggregate an explicit batch of `(node, reference time)` pairs into a
    /// `len x d` row-major matrix, through the same node-keyed function
    /// as [`Trainer::embeddings`]. Power-user API for diagnostics; most
    /// callers want [`Trainer::embeddings`].
    pub fn aggregate_targets(&mut self, targets: &[(NodeId, Timestamp)]) -> Vec<f32> {
        assert!(!targets.is_empty(), "empty target batch");
        let d = self.model.config.dim;
        let mut z = vec![0.0f32; targets.len() * d];
        embed_targets(&mut self.model, self.graph, targets, &mut self.tape, |i, row| {
            z[i * d..(i + 1) * d].copy_from_slice(row)
        });
        z
    }

    /// Aggregate every node's embedding *as of* `t_ref`: walks see only
    /// interactions strictly before `t_ref`, and a node with none gets
    /// singleton walks (its own embedding only). Only a node that never
    /// interacts takes the fallback, so no row pools neighbours from
    /// after `t_ref`; training's fallback for history-less negatives still
    /// does (ROADMAP item 12). Useful for time-sliced analyses ("embed the
    /// network as it looked in 2015").
    pub fn embeddings_at(&mut self, t_ref: Timestamp) -> NodeEmbeddings {
        let targets: Vec<(NodeId, Timestamp)> = self.graph.nodes().map(|v| (v, t_ref)).collect();
        self.embed_all(&targets)
    }

    /// One row per node from `targets`, which lists every node once.
    fn embed_all(&mut self, targets: &[(NodeId, Timestamp)]) -> NodeEmbeddings {
        let mut out = NodeEmbeddings::zeros(self.graph.num_nodes(), self.model.config.dim);
        embed_targets(&mut self.model, self.graph, targets, &mut self.tape, |i, row| {
            out.get_mut(targets[i].0).copy_from_slice(row)
        });
        out
    }

    /// [`ehna_core::refresh_rows`](crate::refresh_rows) on the trainer's
    /// model, graph and tape: the streaming layer rebinds the model to the
    /// grown graph ([`Trainer::from_model`]) and refreshes just the dirty
    /// rows.
    ///
    /// # Errors
    /// Rejects an `out` whose shape does not match the graph/model, or a
    /// node id outside the graph.
    pub fn refresh_rows(
        &mut self,
        out: &mut NodeEmbeddings,
        nodes: &[NodeId],
    ) -> Result<(), String> {
        refresh_rows_on(&mut self.model, self.graph, out, nodes, &mut self.tape)
    }

    /// Consume the trainer, producing final embeddings.
    pub fn into_embeddings(mut self) -> NodeEmbeddings {
        self.embeddings()
    }

    /// Consume the trainer, returning the (possibly further-trained)
    /// model. The streaming layer uses this to carry the model across
    /// graph versions: each batch rebinds via [`Trainer::from_model`] on
    /// the grown graph, fine-tunes, refreshes rows, and takes the model
    /// back out.
    pub fn into_model(self) -> EhnaModel {
        self.model
    }
}

/// Salt separating [`Trainer::train_batch`]'s negative stream from its
/// walk streams, which share the `(seed, epoch, batch)` base seed.
const BATCH_NEGATIVE_SALT: u64 = 0xBA7C_4E6A_7E5E_ED04;

/// Edge-weighted mean of per-batch `(mean loss, edge count)` summaries:
/// every *edge* contributes equally to the epoch loss, so a short final
/// chunk (e.g. 1 edge when `|E| % batch_size == 1`) is not overweighted
/// the way a flat mean over batch means would be.
fn epoch_loss_mean(batch_losses: &[(f64, usize)]) -> f64 {
    let edges: usize = batch_losses.iter().map(|&(_, n)| n).sum();
    let weighted: f64 = batch_losses.iter().map(|&(l, n)| l * n as f64).sum();
    weighted / edges.max(1) as f64
}

/// Stack `x` on itself `times` times: `[m,n] -> [times*m, n]`.
fn repeat_rows(g: &mut Graph, x: ehna_nn::Var, times: usize) -> ehna_nn::Var {
    if times == 1 {
        return x;
    }
    let parts: Vec<ehna_nn::Var> = (0..times).map(|_| x).collect();
    g.concat_rows(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;

    /// Two well-separated temporal communities joined by nothing: EHNA
    /// must pull intra-community pairs together.
    fn two_communities() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        let mut t = 0i64;
        // Community A: nodes 0..5, community B: nodes 5..10.
        for round in 0..4 {
            for i in 0..5u32 {
                for j in (i + 1)..5 {
                    if (i + j + round) % 3 == 0 {
                        t += 1;
                        b.add_edge(i, j, t, 1.0).unwrap();
                        b.add_edge(i + 5, j + 5, t, 1.0).unwrap();
                    }
                }
            }
        }
        b.build().unwrap()
    }

    fn tiny_cfg() -> EhnaConfig {
        EhnaConfig {
            dim: 8,
            num_walks: 3,
            walk_length: 3,
            batch_size: 16,
            epochs: 2,
            negatives: 3,
            lr: 5e-3,
            ..EhnaConfig::tiny()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let g = two_communities();
        let mut trainer = Trainer::new(&g, EhnaConfig { epochs: 6, ..tiny_cfg() }).unwrap();
        let report = trainer.train();
        assert_eq!(report.epoch_losses.len(), 6);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last < first * 0.9, "no learning: first epoch {first:.4}, last {last:.4}");
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn embeddings_have_right_shape_and_are_finite() {
        let g = two_communities();
        let mut trainer = Trainer::new(&g, tiny_cfg()).unwrap();
        trainer.train();
        let e = trainer.into_embeddings();
        assert_eq!(e.num_nodes(), g.num_nodes());
        assert_eq!(e.dim(), 8);
        assert!(e.as_slice().iter().all(|v| v.is_finite()));
        // Final embeddings are aggregated readouts: unit rows.
        for v in g.nodes() {
            let norm: f32 = e.get(v).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-2, "node {v:?} norm {norm}");
        }
    }

    #[test]
    fn learned_embeddings_separate_communities() {
        let g = two_communities();
        let cfg = EhnaConfig { epochs: 8, ..tiny_cfg() };
        let mut trainer = Trainer::new(&g, cfg).unwrap();
        trainer.train();
        let e = trainer.into_embeddings();
        // Mean intra-community distance must undercut inter-community.
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                let d = e.sq_dist(NodeId(i), NodeId(j));
                if (i < 5) == (j < 5) {
                    intra += d;
                    n_intra += 1;
                } else {
                    inter += d;
                    n_inter += 1;
                }
            }
        }
        let (intra, inter) = (intra / n_intra as f64, inter / n_inter as f64);
        assert!(intra < inter, "communities not separated: intra {intra:.4} vs inter {inter:.4}");
    }

    #[test]
    fn empty_graph_rejected() {
        // Builder refuses empty graphs, so simulate via config error path:
        let g = two_communities();
        let bad = EhnaConfig { dim: 0, ..tiny_cfg() };
        assert!(Trainer::new(&g, bad).is_err());
    }

    #[test]
    fn bad_lr_is_an_error_not_a_panic() {
        let g = two_communities();
        for lr in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let err = Trainer::new(&g, EhnaConfig { lr, ..tiny_cfg() }).err();
            assert_eq!(err.as_deref(), Some("lr must be finite and positive"), "lr = {lr}");
        }
    }

    #[test]
    fn bidirectional_objective_trains() {
        let g = two_communities();
        let cfg = EhnaConfig { bidirectional: true, epochs: 2, ..tiny_cfg() };
        let mut trainer = Trainer::new(&g, cfg).unwrap();
        let report = trainer.train();
        assert!(report.epoch_losses.iter().all(|l| l.is_finite() && *l >= 0.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = two_communities();
        let run = || {
            let mut t = Trainer::new(&g, tiny_cfg()).unwrap();
            t.train();
            t.into_embeddings()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "training is not reproducible");
    }

    #[test]
    fn pipeline_depth_is_bit_identical() {
        // The determinism contract of the prefetch pipeline: any depth
        // (and thread count) yields bit-identical losses and embeddings.
        let g = two_communities();
        let run = |depth: usize, threads: usize| {
            let cfg = EhnaConfig { pipeline_depth: depth, threads, ..tiny_cfg() };
            let mut t = Trainer::new(&g, cfg).unwrap();
            let report = t.train();
            (report.epoch_losses, t.into_embeddings())
        };
        let (sync_losses, sync_emb) = run(0, 1);
        for (depth, threads) in [(2, 1), (4, 3)] {
            let (losses, emb) = run(depth, threads);
            assert_eq!(
                sync_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
                "losses diverged at depth {depth}, threads {threads}"
            );
            assert_eq!(sync_emb, emb, "embeddings diverged at depth {depth}, threads {threads}");
        }
    }

    #[test]
    fn epoch_loss_mean_weights_by_edges() {
        // A 1-edge trailing chunk must contribute 1/17th, not 1/2.
        let batches = [(1.0, 16usize), (9.0, 1usize)];
        let weighted = epoch_loss_mean(&batches);
        assert!((weighted - 25.0 / 17.0).abs() < 1e-12, "got {weighted}");
        // Degenerate inputs stay finite.
        assert_eq!(epoch_loss_mean(&[]), 0.0);
        // Uniform batch sizes reduce to the flat mean.
        assert!((epoch_loss_mean(&[(2.0, 8), (4.0, 8)]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_final_batch_trains_and_reports_phases() {
        // 34 edges with batch_size 16 leaves a 2-edge final chunk.
        let mut b = ehna_tgraph::GraphBuilder::new();
        for i in 0..17u32 {
            b.add_edge(i % 6, (i + 1) % 6 + 4, i as i64 + 1, 1.0).unwrap();
            b.add_edge(i % 5, (i + 2) % 7 + 3, i as i64 + 1, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let cfg = EhnaConfig { epochs: 1, ..tiny_cfg() };
        let mut t = Trainer::new(&g, cfg).unwrap();
        let report = t.train();
        assert_eq!(report.batches, g.num_edges().div_ceil(16));
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(report.phase_timings.len(), 1);
        let total = report.total_phase_timings();
        assert!(total.sample_time > Duration::ZERO);
        assert!(total.compute_time > Duration::ZERO);
    }

    #[test]
    fn refresh_rows_is_composition_independent() {
        // A node refreshed alone, in any subset, or by a full pass must
        // get the same row: walk streams are keyed by node id, fallback
        // RNGs too, and eval-mode batch norm is row-independent. Pad the
        // graph so isolated (fallback-path) nodes are covered as well.
        let g = two_communities().padded_to(12);
        let mut t = Trainer::new(&g, tiny_cfg()).unwrap();
        t.train();
        let all: Vec<NodeId> = g.nodes().collect();
        let mut full = NodeEmbeddings::zeros(g.num_nodes(), 8);
        t.refresh_rows(&mut full, &all).unwrap();
        let mut parts = NodeEmbeddings::zeros(g.num_nodes(), 8);
        t.refresh_rows(&mut parts, &all[7..]).unwrap();
        t.refresh_rows(&mut parts, &all[..3]).unwrap();
        t.refresh_rows(&mut parts, &all[3..7]).unwrap();
        let max_diff = full
            .as_slice()
            .iter()
            .zip(parts.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-5, "refresh depends on batch composition: max diff {max_diff}");
    }

    #[test]
    fn refresh_rows_touches_only_requested_rows() {
        let g = two_communities();
        let mut t = Trainer::new(&g, tiny_cfg()).unwrap();
        let mut out = NodeEmbeddings::zeros(g.num_nodes(), 8);
        t.refresh_rows(&mut out, &[NodeId(2), NodeId(7)]).unwrap();
        for v in g.nodes() {
            let touched = v == NodeId(2) || v == NodeId(7);
            let nonzero = out.get(v).iter().any(|&x| x != 0.0);
            assert_eq!(touched, nonzero, "row {v:?}");
        }
        // Shape and range validation.
        let mut bad = NodeEmbeddings::zeros(3, 8);
        assert!(t.refresh_rows(&mut bad, &[NodeId(0)]).is_err());
        assert!(t.refresh_rows(&mut out, &[NodeId(99)]).is_err());
    }

    #[test]
    fn inference_embeddings_invariant_to_batch_size() {
        // Inference walks and fallback draws are keyed by node id, so
        // chunking must not change the final embeddings.
        let g = two_communities();
        let at_bs = |bs: usize| {
            let cfg = EhnaConfig { batch_size: bs, ..tiny_cfg() };
            Trainer::new(&g, cfg).unwrap().embeddings()
        };
        let small = at_bs(3);
        let large = at_bs(64);
        assert_eq!(small, large, "embeddings depend on inference batch size");
    }

    #[test]
    fn train_batch_negatives_are_keyed_by_batch_index() {
        // Fresh trainers over the same model, as the stream builds one per
        // batch: different batch indices must draw different negatives,
        // equal ones the same.
        let g = two_communities();
        let edges: Vec<(NodeId, NodeId, Timestamp)> =
            g.edges()[..8].iter().map(|e| (e.src, e.dst, e.t)).collect();
        let negatives = |batch_idx: u64| {
            let model = Trainer::new(&g, tiny_cfg()).unwrap().into_model();
            let t = Trainer::from_model(&g, model).unwrap();
            t.batch_plan(&edges, batch_idx).0.negatives
        };
        assert_ne!(negatives(0), negatives(1009), "batches 0 and 1009 drew the same negatives");
        assert_eq!(negatives(1009), negatives(1009));
    }
}
