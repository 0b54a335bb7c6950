//! The incremental-refresh contract: streaming batches through
//! `StreamProcessor` must track what a from-scratch rebuild on the final
//! graph produces.
//!
//! * With `finetune_steps = 0` the model is frozen, so dirty-set refresh
//!   is pure re-aggregation and must match the full rebuild near-exactly
//!   (node-keyed walk streams + eval-mode batch norm; tolerance 1e-4).
//!   Every row comes from the one node-keyed inference function, so the
//!   two tables are also pinned bit for bit.
//! * With fine-tuning on, clean rows keep embeddings computed under
//!   earlier parameters, so equivalence is a bounded drift instead; rows
//!   dirty in the *final* batch are refreshed under the final model and
//!   must still match tightly.
//! * `full_rebuild_every` re-baselines all rows and restores near-exact
//!   agreement at the rebuild batches.

use ehna_core::{AggregatorKind, EhnaConfig, EhnaModel, Trainer};
use ehna_stream::{StreamOptions, StreamProcessor};
use ehna_tgraph::{GraphBuilder, NodeEmbeddings, NodeId, TemporalEdge, TemporalGraph, Timestamp};
use ehna_walks::DecayKernel;

const NUM_NODES: usize = 10;

/// Two parallel communities (0..5 and 5..10) interacting over six rounds.
/// Round 0 already touches every node, so any prefix of at least one
/// round covers the full id space.
fn all_edges() -> Vec<TemporalEdge> {
    let mut edges = Vec::new();
    let mut t = 0i64;
    for round in 0..6u32 {
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                if (i + j + round) % 3 == 0 {
                    t += 1;
                    edges.push(TemporalEdge::new(NodeId(i), NodeId(j), Timestamp(t), 1.0));
                    edges.push(TemporalEdge::new(NodeId(i + 5), NodeId(j + 5), Timestamp(t), 1.0));
                }
            }
        }
    }
    edges
}

fn graph_of(edges: &[TemporalEdge]) -> TemporalGraph {
    let mut b = GraphBuilder::with_num_nodes(NUM_NODES);
    b.extend_edges(edges.iter().copied()).unwrap();
    b.build().unwrap()
}

/// Kernel pinned explicitly: the span-derived default would resolve
/// differently on the prefix and final graphs, which is a config choice,
/// not an incremental-refresh defect (StreamProcessor pins it at stream
/// start either way — pinning here keeps the comparator aligned).
fn cfg() -> EhnaConfig {
    EhnaConfig {
        dim: 8,
        num_walks: 3,
        walk_length: 3,
        batch_size: 16,
        epochs: 2,
        negatives: 3,
        lr: 5e-3,
        kernel: Some(DecayKernel::Exponential { timescale: 50.0 }),
        ..EhnaConfig::tiny()
    }
}

/// Training is deterministic for a fixed graph/config, so calling this
/// twice yields bit-identical models — the incremental run and the
/// comparator start from the same parameters.
fn trained_model(g: &TemporalGraph) -> EhnaModel {
    trained_model_with(g, cfg())
}

fn trained_model_with(g: &TemporalGraph, config: EhnaConfig) -> EhnaModel {
    let mut t = Trainer::new(g, config).unwrap();
    t.train();
    t.into_model()
}

fn max_row_dist(a: &NodeEmbeddings, b: &NodeEmbeddings) -> f64 {
    assert_eq!(a.num_nodes(), b.num_nodes());
    let mut worst = 0.0f64;
    for v in 0..a.num_nodes() {
        let (ra, rb) = (a.get(NodeId(v as u32)), b.get(NodeId(v as u32)));
        let d2: f64 = ra.iter().zip(rb).map(|(x, y)| (f64::from(*x) - f64::from(*y)).powi(2)).sum();
        worst = worst.max(d2.sqrt());
    }
    worst
}

fn bits(e: &NodeEmbeddings) -> Vec<u32> {
    e.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn split() -> (Vec<TemporalEdge>, Vec<Vec<TemporalEdge>>) {
    let edges = all_edges();
    let cut = edges.len() * 3 / 5;
    let prefix = edges[..cut].to_vec();
    let suffix: Vec<Vec<TemporalEdge>> = edges[cut..].chunks(4).map(|c| c.to_vec()).collect();
    assert!(suffix.len() >= 3, "need several batches, got {}", suffix.len());
    (prefix, suffix)
}

#[test]
fn frozen_model_refresh_matches_full_rebuild() {
    let (prefix, suffix) = split();
    let opts = StreamOptions { finetune_steps: 0, ..StreamOptions::default() };

    let mut inc =
        StreamProcessor::new(graph_of(&prefix), trained_model(&graph_of(&prefix)), opts).unwrap();
    let mut any_partial = false;
    for batch in &suffix {
        let out = inc.apply_batch(batch).unwrap();
        assert!(out.plan.time_respecting, "p = q = 1 must use the temporal cone");
        any_partial |= out.refreshed < NUM_NODES;
    }
    assert!(any_partial, "dirty sets never smaller than the graph; test has no power");

    // Comparator: the same frozen model, full re-aggregation on the final
    // graph.
    let full_graph = graph_of(&all_edges());
    let full =
        StreamProcessor::new(full_graph.clone(), trained_model(&graph_of(&prefix)), opts).unwrap();

    assert_eq!(inc.graph().num_edges(), full_graph.num_edges());
    let dist = max_row_dist(inc.embeddings(), full.embeddings());
    assert!(dist < 1e-4, "frozen-model incremental drifted from rebuild: max row dist {dist}");
    assert_eq!(
        bits(inc.embeddings()),
        bits(full.embeddings()),
        "frozen refresh is not bit-identical"
    );
}

#[test]
fn frozen_attn_model_refresh_matches_full_rebuild() {
    // The same contract under the attention aggregator: dirty-set
    // re-aggregation with a frozen model must track the full rebuild
    // regardless of which node-level stage the model carries.
    let attn_cfg = EhnaConfig { aggregator: AggregatorKind::Attn, heads: 2, ..cfg() };
    let (prefix, suffix) = split();
    let opts = StreamOptions { finetune_steps: 0, ..StreamOptions::default() };

    let mut inc = StreamProcessor::new(
        graph_of(&prefix),
        trained_model_with(&graph_of(&prefix), attn_cfg.clone()),
        opts,
    )
    .unwrap();
    let mut any_partial = false;
    for batch in &suffix {
        let out = inc.apply_batch(batch).unwrap();
        any_partial |= out.refreshed < NUM_NODES;
    }
    assert!(any_partial, "dirty sets never smaller than the graph; test has no power");

    let full_graph = graph_of(&all_edges());
    let full = StreamProcessor::new(
        full_graph.clone(),
        trained_model_with(&graph_of(&prefix), attn_cfg),
        opts,
    )
    .unwrap();

    assert_eq!(inc.graph().num_edges(), full_graph.num_edges());
    let dist = max_row_dist(inc.embeddings(), full.embeddings());
    assert!(dist < 1e-4, "frozen attn incremental drifted from rebuild: max row dist {dist}");
    assert_eq!(
        bits(inc.embeddings()),
        bits(full.embeddings()),
        "frozen attn refresh not bit-identical"
    );
}

#[test]
fn finetuned_refresh_stays_within_documented_bound() {
    let (prefix, suffix) = split();
    let opts =
        StreamOptions { finetune_steps: 1, finetune_lr: Some(1e-3), ..StreamOptions::default() };

    let mut inc =
        StreamProcessor::new(graph_of(&prefix), trained_model(&graph_of(&prefix)), opts).unwrap();
    // Comparator: identical fine-tuning schedule (the model parameters
    // evolve identically — refresh coverage does not feed back into
    // training), but every batch re-aggregates all rows.
    let mut reb = StreamProcessor::new(
        graph_of(&prefix),
        trained_model(&graph_of(&prefix)),
        StreamOptions { full_rebuild_every: 1, ..opts },
    )
    .unwrap();

    let mut last_dirty: Vec<NodeId> = Vec::new();
    for batch in &suffix {
        let out = inc.apply_batch(batch).unwrap();
        assert!(out.finetune_loss.is_some());
        reb.apply_batch(batch).unwrap();
        last_dirty = out.plan.dirty.clone();
    }

    // Rows dirty in the final batch were refreshed under the final model
    // on the final graph in both runs: they must agree near-exactly.
    let mut dirty_worst = 0.0f64;
    for &v in &last_dirty {
        let d2: f64 = inc
            .embeddings()
            .get(v)
            .iter()
            .zip(reb.embeddings().get(v))
            .map(|(x, y)| (f64::from(*x) - f64::from(*y)).powi(2))
            .sum();
        dirty_worst = dirty_worst.max(d2.sqrt());
    }
    assert!(
        dirty_worst < 1e-4,
        "final-batch dirty rows disagree under identical models: {dirty_worst}"
    );

    // Clean rows carry embeddings from earlier parameter states. Rows are
    // L2-normalized, so 2.0 is the diameter; the documented streaming
    // drift bound is far inside it.
    let dist = max_row_dist(inc.embeddings(), reb.embeddings());
    assert!(dist < 0.5, "fine-tuned incremental exceeded documented drift bound: {dist}");
}

#[test]
fn full_rebuild_escape_hatch_fires_on_schedule() {
    let (prefix, suffix) = split();
    let opts = StreamOptions { finetune_steps: 1, full_rebuild_every: 2, finetune_lr: None };
    let mut sp =
        StreamProcessor::new(graph_of(&prefix), trained_model(&graph_of(&prefix)), opts).unwrap();
    for (i, batch) in suffix.iter().enumerate() {
        let out = sp.apply_batch(batch).unwrap();
        let expect_full = (i + 1) % 2 == 0;
        assert_eq!(out.full_rebuild, expect_full, "batch {i}");
        if expect_full {
            assert_eq!(out.refreshed, NUM_NODES, "batch {i}");
        }
    }
}

#[test]
fn invalid_batches_leave_state_unchanged() {
    let (prefix, _) = split();
    let mut sp = StreamProcessor::new(
        graph_of(&prefix),
        trained_model(&graph_of(&prefix)),
        StreamOptions::default(),
    )
    .unwrap();
    let before = sp.embeddings().clone();
    let edges_before = sp.graph().num_edges();

    // Node id beyond the trained table: online node growth is out of
    // scope, so this must be a hard error, not a silent resize.
    let oob = vec![TemporalEdge::new(NodeId(0), NodeId(99), Timestamp(1000), 1.0)];
    assert!(sp.apply_batch(&oob).is_err());

    assert_eq!(sp.graph().num_edges(), edges_before);
    assert_eq!(sp.embeddings(), &before);
    assert_eq!(sp.batches_done(), 0);

    // And a valid batch still applies afterwards.
    let ok = vec![TemporalEdge::new(NodeId(0), NodeId(9), Timestamp(1000), 1.0)];
    assert_eq!(sp.apply_batch(&ok).unwrap().edges, 1);
}
