//! `train`: the paper path (LSTM aggregator, Algorithm 1) on the
//! digg-like tiny link-prediction train split. A closed batch job: timed
//! epochs through `Trainer::train`, then `Trainer::embeddings`, then
//! Weighted-L2 link prediction.
//!
//! The traced run cannot look inside `Trainer` without instrumenting the
//! crate, so after one untraced `Trainer` epoch (the reference for the
//! overhead, and the source of `PhaseTimings`) it drives one more epoch
//! itself through the same public layers the trainer calls —
//! `BatchPrefetcher::sample_plan`, `Aggregator::aggregate`,
//! `Graph::backward`, `clip_grad_norm` and `Adam::step` — with a span
//! around each call.

use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Outcome};
use ehna_core::{Aggregator, EhnaConfig, EhnaModel, LstmAggregator, NegativeSampler, Trainer};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_eval::{EdgeOperator, LinkPredictionConfig, LinkPredictionTask};
use ehna_nn::optim::{clip_grad_norm, Adam};
use ehna_nn::{Graph, Var};
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph, Timestamp};
use ehna_walks::{BatchPlan, BatchPrefetcher, NeighborhoodSampler, PrefetchedBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Generator seed of the dataset.
const DATASET_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `Trainer::embeddings` calls per run; `p50_ms` and `tail_ms` are their
/// median and slowest.
const EMBED_CALLS: usize = 5;
/// Lowest acceptable Weighted-L2 link-prediction AUC after the timed
/// epochs (chance is 0.5; one epoch reaches about 0.7 on this split).
const AUC_FLOOR: f64 = 0.6;

fn config(seed: u64) -> EhnaConfig {
    EhnaConfig {
        dim: 64,
        num_walks: 10,
        walk_length: 10,
        negatives: 5,
        batch_size: 128,
        threads: 2,
        pipeline_depth: 2,
        epochs: 1,
        seed,
        ..EhnaConfig::default()
    }
}

/// Generate the dataset and its temporal link-prediction split. The
/// graph is one fixed draw of the generator, so runs differ by what the
/// system does with it (initialisation, walks, negatives, the
/// classifier's splits — all from `seed`), not by a different graph.
fn prepare(seed: u64, tracer: &mut Tracer) -> LinkPredictionTask {
    let graph = tracer
        .span("datasets.generate", 0, |_| generate(Dataset::DiggLike, Scale::Tiny, DATASET_SEED));
    LinkPredictionTask::prepare(&graph, LinkPredictionConfig { seed, ..Default::default() })
}

/// Set up `SETUPS` times (dataset, split, trainer construction) and keep
/// the last task; returns it with the median set-up time.
fn setup(seed: u64, tracer: &mut Tracer) -> Result<(LinkPredictionTask, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut task = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let t = prepare(seed, tracer);
        drop(Trainer::new(t.train_graph(), config(seed))?);
        times.push(t0.elapsed().as_secs_f64());
        task = Some(t);
    }
    Ok((task.expect("at least one set-up"), stats::median(&times)))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (task, setup_s) = setup(args.seed, tracer)?;
    let graph = task.train_graph();
    let mut out = Outcome::default();
    out.record(
        "input",
        format!(
            r#"{{"dataset":"digg-like tiny train split","nodes":{},"edges":{},"dim":64,"walks":10,"walk_length":10,"negatives":5,"batch":128,"threads":2,"pipeline_depth":2}}"#,
            graph.num_nodes(),
            graph.num_edges()
        ),
    );
    let mut trainer = Trainer::new(graph, config(args.seed))?;
    if args.trace {
        traced(args, &task, trainer, tracer, &mut out)?;
        return Ok(out);
    }
    out.metric("setup_s", setup_s);
    let setup_rss = crate::start_measured_rss();

    // Whole epochs until the time budget is spent (at least one).
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut epoch_ms = Vec::new();
    let mut losses = Vec::new();
    while epoch_ms.is_empty() || started.elapsed() < budget {
        let report = trainer.train();
        epoch_ms.push(report.wall_time.as_secs_f64() * 1e3);
        losses.extend(report.epoch_losses);
    }
    let rate = graph.num_edges() as f64 / (stats::median(&epoch_ms) / 1e3);
    out.metric("rate_per_s", rate);
    out.check("every epoch loss is finite", losses.iter().all(|l| l.is_finite()));

    // The user-visible wait after training: the final inference pass.
    let mut embed_ms = Vec::with_capacity(EMBED_CALLS);
    let mut emb = None;
    for _ in 0..EMBED_CALLS {
        let t0 = Instant::now();
        emb = Some(trainer.embeddings());
        embed_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let emb = emb.expect("at least one inference pass");
    let (p50, pct, tail) = stats::summarize(&embed_ms);
    out.metric("p50_ms", p50);
    out.metric("tail_ms", tail);
    out.check("embeddings are finite", emb.as_slice().iter().all(|x| x.is_finite()));
    let t0 = Instant::now();
    let auc = task.evaluate(&emb, EdgeOperator::WeightedL2).auc;
    let linkpred_s = t0.elapsed().as_secs_f64();
    out.check(format!("linkpred_auc {auc:.4} >= {AUC_FLOOR}"), auc >= AUC_FLOOR);

    out.attempted = epoch_ms.len() as u64;
    out.failed = losses.iter().filter(|l| !l.is_finite()).count() as u64;
    out.record(
        "train",
        format!(
            r#"{{"train_edges_per_s":{rate},"epochs":{},"epoch_ms":{epoch_ms:?},"losses":{losses:?},"embed_s":{},"embed_ms":{embed_ms:?},"embed_tail_pct":{pct},"linkpred_auc":{auc},"linkpred_s":{linkpred_s},"setup_s":{setup_s},"setup_peak_rss_mb":{setup_rss}}}"#,
            epoch_ms.len(),
            p50 / 1e3
        ),
    );
    Ok(out)
}

/// The traced run: one untraced `Trainer` epoch, then one epoch and one
/// inference pass driven layer by layer with spans.
fn traced(
    args: &Args,
    task: &LinkPredictionTask,
    mut trainer: Trainer<'_>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let graph = task.train_graph();
    let cfg = config(args.seed);
    let per_setup = |t: &Tracer, name: &str| {
        t.totals().get(name).map_or(0.0, |x| x.self_ns as f64 / x.calls as f64 / 1e9)
    };
    out.metric("datasets.generate_s", per_setup(tracer, "datasets.generate"));

    let report = trainer.train();
    let phases = report.total_phase_timings();
    let reference_s = report.wall_time.as_secs_f64();
    out.metric("trainer.compute_s", phases.compute_time.as_secs_f64());
    out.metric("trainer.stall_s", phases.prefetch_stall_time.as_secs_f64());
    let mut model = trainer.into_model();

    // One epoch through the public layers, mirroring Trainer's batch step.
    let negative = NegativeSampler::new(graph).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7ACE);
    let mut adam = Adam::new(cfg.lr);
    let mut tape = Graph::new();
    let (mut walk_nodes, mut walks, mut fallback, mut negatives) = (0usize, 0usize, 0usize, 0usize);
    let mut losses = Vec::new();
    for (i, chunk) in graph.edges().chunks(cfg.batch_size).enumerate() {
        let req = i as u64;
        let pairs: Vec<(NodeId, NodeId, Timestamp)> =
            chunk.iter().map(|e| (e.src, e.dst, e.t)).collect();
        let mut negs = Vec::with_capacity(chunk.len() * cfg.negatives);
        for _ in 0..cfg.negatives {
            for e in chunk {
                negs.push((negative.sample(e.src, e.dst, &mut rng), e.t));
            }
        }
        let plan =
            BatchPlan { pairs, negatives: negs, walk_seed: args.seed.wrapping_mul(0x9E37) ^ req };
        let loss = tracer.span("train.batch", req, |t| {
            let sampler = NeighborhoodSampler::new(graph, model.walk_config(graph), cfg.num_walks);
            let batch = t.span("walks.sample", req, |_| {
                BatchPrefetcher::new(&sampler, 0, cfg.threads).sample_plan(plan)
            });
            for hn in batch.hns.iter().chain(&batch.neg_hns) {
                walks += hn.walks.len();
                walk_nodes += hn.walks.iter().map(|w| w.nodes.len()).sum::<usize>();
            }
            fallback += batch.fb_negs.len();
            negatives += batch.neg_slot.len();
            batch_step(&mut model, &mut tape, graph, batch, &mut adam, &mut rng, t, req)
        });
        losses.push(loss);
    }
    out.check("every replica batch loss is finite", losses.iter().all(|l| l.is_finite()));

    let emb = tracer.span("train.embed", 0, |t| infer(&mut model, graph, args.seed, t));
    out.check("replica embeddings are finite", emb.as_slice().iter().all(|x| x.is_finite()));
    let auc =
        tracer.span("eval.linkpred", 0, |_| task.evaluate(&emb, EdgeOperator::WeightedL2).auc);

    let totals = tracer.totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    for (metric, span) in [
        ("walks.sample_s", "walks.sample"),
        ("core.aggregate_s", "core.aggregate"),
        ("core.fallback_s", "core.fallback"),
        ("nn.loss_s", "nn.loss"),
        ("nn.backward_s", "nn.backward"),
        ("nn.optim_s", "nn.optim"),
        ("walks.infer_sample_s", "walks.infer_sample"),
        ("core.infer_aggregate_s", "core.infer_aggregate"),
        ("eval.linkpred_s", "eval.linkpred"),
    ] {
        out.metric(metric, self_s(span));
    }
    let unattributed = self_s("train.batch") + self_s("train.embed");
    out.metric("train.unattributed_s", unattributed);
    out.metric(
        "walks.steps_per_walk",
        walk_nodes as f64 / walks.max(1) as f64 / cfg.walk_length as f64,
    );
    out.metric("core.fallback_share", fallback as f64 / negatives.max(1) as f64);
    let wall_of = |names: &[&str]| -> f64 {
        tracer
            .spans()
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    };
    let epoch_s = wall_of(&["train.batch"]);
    let timed_s = wall_of(&["train.batch", "train.embed", "eval.linkpred"]);
    out.metric("trace.overhead_share", epoch_s / reference_s - 1.0);
    out.attempted = losses.len() as u64;
    out.record(
        "trace",
        format!(
            r#"{{"untraced_epoch_s":{reference_s},"traced_epoch_s":{epoch_s},"timed_wall_s":{timed_s},"unattributed_share":{},"replica_linkpred_auc":{auc},"note":"overhead compares the traced replica epoch (synchronous sampling) with the untraced pipelined Trainer epoch"}}"#,
            unattributed / timed_s
        ),
    );
    Ok(())
}

/// One optimization step on a presampled batch: the margin loss of
/// `Trainer`'s batch step, spelled out over the public tape ops.
#[allow(clippy::too_many_arguments)]
fn batch_step(
    model: &mut EhnaModel,
    g: &mut Graph,
    graph: &TemporalGraph,
    batch: PrefetchedBatch,
    adam: &mut Adam,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    req: u64,
) -> f64 {
    let q = model.config.negatives;
    let margin = model.config.margin;
    let PrefetchedBatch { pairs, hns, neg_hns, fb_negs, neg_slot, .. } = batch;
    let b = pairs.len();
    let num_agg = neg_hns.len();
    let mut all = hns;
    all.extend(neg_hns);
    let z_all =
        tracer.span("core.aggregate", req, |_| LstmAggregator.aggregate(model, g, &all, true));
    let z_fb = if fb_negs.is_empty() {
        None
    } else {
        Some(tracer.span("core.fallback", req, |_| fallback(model, g, graph, &fb_negs, rng)))
    };
    let loss = tracer.span("nn.loss", req, |_| {
        let z_x = g.slice_rows(z_all, 0, b);
        let z_y = g.slice_rows(z_all, b, 2 * b);
        let z_n = match z_fb {
            None => {
                let rows: Vec<u32> = neg_slot.iter().map(|&(_, i)| 2 * b as u32 + i).collect();
                g.select_rows(z_all, &rows)
            }
            Some(fb) => {
                let combined = if num_agg == 0 {
                    fb
                } else {
                    let agg = g.slice_rows(z_all, 2 * b, 2 * b + num_agg);
                    g.concat_rows(&[agg, fb])
                };
                let rows: Vec<u32> = neg_slot
                    .iter()
                    .map(|&(agg, i)| if agg { i } else { num_agg as u32 + i })
                    .collect();
                g.select_rows(combined, &rows)
            }
        };
        let diff_pos = g.sub(z_x, z_y);
        let d_pos = g.row_sq_norms(diff_pos);
        let d_pos_rep = g.concat_rows(&vec![d_pos; q]);
        let z_x_rep = g.concat_rows(&vec![z_x; q]);
        let diff_neg = g.sub(z_x_rep, z_n);
        let d_neg = g.row_sq_norms(diff_neg);
        let gap = g.sub(d_pos_rep, d_neg);
        let gap = g.add_scalar(gap, margin);
        let hinge = g.relu(gap);
        g.mean_all(hinge)
    });
    let value = g.value(loss)[0] as f64;
    tracer.span("nn.backward", req, |_| {
        g.backward(loss);
        g.write_grads(&mut model.store);
    });
    g.recycle();
    tracer.span("nn.optim", req, |_| {
        clip_grad_norm(&mut model.store, model.config.grad_clip);
        adam.step(&mut model.store);
    });
    value
}

/// GraphSAGE-style fallback for history-less nodes (paper §IV-D):
/// mean-pool sampled one- and two-hop neighbour embeddings, then the
/// shared readout. Mirrors the crate-private fallback the trainer uses.
fn fallback(
    model: &EhnaModel,
    g: &mut Graph,
    graph: &TemporalGraph,
    nodes: &[(NodeId, Timestamp)],
    rng: &mut StdRng,
) -> Var {
    let fan = model.config.fallback_samples;
    let ids: Vec<u32> = nodes.iter().map(|(v, _)| v.0).collect();
    let e_targets = g.gather(&model.store, model.embeddings, &ids);
    let mut pooled = Vec::with_capacity(nodes.len());
    for &(v, t) in nodes {
        let pool_of = |u: NodeId| {
            let hist = graph.neighbors_before(u, t);
            if hist.is_empty() {
                graph.neighbors(u)
            } else {
                hist
            }
        };
        let pool = pool_of(v);
        let mut nbrs = Vec::with_capacity(2 * fan);
        if pool.is_empty() {
            nbrs.push(v.0);
        }
        for _ in 0..if pool.is_empty() { 0 } else { fan } {
            let one = pool[rng.gen_range(0..pool.len())].node;
            nbrs.push(one.0);
            let pool2 = pool_of(one);
            if !pool2.is_empty() {
                nbrs.push(pool2[rng.gen_range(0..pool2.len())].node.0);
            }
        }
        let rows = g.gather(&model.store, model.embeddings, &nbrs);
        pooled.push(g.mean_cols(rows));
    }
    let h = if pooled.len() == 1 { pooled[0] } else { g.concat_rows(&pooled) };
    let cat = g.concat_cols(h, e_targets);
    let z = model.readout.forward(g, &model.store, cat);
    g.l2_normalize_rows(z, 1e-6)
}

/// Final inference pass (`Trainer::embeddings`) through the public
/// layers: every node aggregated against its most recent interaction,
/// history-less nodes through the fallback.
fn infer(
    model: &mut EhnaModel,
    graph: &TemporalGraph,
    seed: u64,
    tracer: &mut Tracer,
) -> NodeEmbeddings {
    let d = model.config.dim;
    let bs = model.config.batch_size;
    let threads = model.config.threads;
    let mut out = NodeEmbeddings::zeros(graph.num_nodes(), d);
    let mut with_history = Vec::new();
    let mut without = Vec::new();
    for v in graph.nodes() {
        match graph.latest_interaction(v) {
            Some(last) => with_history.push((v, Timestamp(last.t.raw().saturating_add(1)))),
            None => without.push((v, Timestamp::MAX)),
        }
    }
    let sampler = NeighborhoodSampler::new(graph, model.walk_config(graph), model.config.num_walks);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1FE2);
    for (c, chunk) in with_history.chunks(bs).enumerate() {
        let req = c as u64;
        let hns = tracer.span("walks.infer_sample", req, |_| {
            sampler.sample_batch_at(chunk, threads, seed, c * bs)
        });
        let mut g = Graph::new();
        let z = tracer.span("core.infer_aggregate", req, |_| {
            LstmAggregator.aggregate(model, &mut g, &hns, false)
        });
        let zv = g.value(z);
        for (i, &(v, _)) in chunk.iter().enumerate() {
            out.get_mut(v).copy_from_slice(&zv[i * d..(i + 1) * d]);
        }
    }
    for chunk in without.chunks(bs) {
        let mut g = Graph::new();
        let z =
            tracer.span("core.fallback", 0, |_| fallback(model, &mut g, graph, chunk, &mut rng));
        let zv = g.value(z);
        for (i, &(v, _)) in chunk.iter().enumerate() {
            out.get_mut(v).copy_from_slice(&zv[i * d..(i + 1) * d]);
        }
    }
    out
}
