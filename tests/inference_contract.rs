//! The inference contract: every inference entry point runs one
//! node-keyed function, so a row depends on the model, the graph, the
//! node and its reference time only.
//!
//! * `Trainer::embeddings` equals `Trainer::refresh_rows` over every node
//!   and the baseline table of `StreamProcessor::new`, bit for bit, for a
//!   frozen model with a pinned decay kernel.
//! * Inference does not touch the training RNG: embedding a time slice
//!   between two training runs leaves the second run's losses unchanged.
//! * `embeddings_at(t)` rows do not depend on `batch_size`, `threads`, or
//!   which other targets the same call aggregates.
//!
//! Each check runs for both aggregators.

use ehna_core::{AggregatorKind, EhnaConfig, EhnaModel, Trainer};
use ehna_stream::{StreamOptions, StreamProcessor};
use ehna_tgraph::{GraphBuilder, NodeEmbeddings, NodeId, TemporalGraph, Timestamp};
use ehna_walks::DecayKernel;

/// Two communities (0..5, 5..10) over four rounds, node 10 joining only
/// in the last two rounds, and node 11 never interacting. So at `MID`
/// node 10 has no history yet (singleton walks) and node 11 takes the
/// fallback at every reference time.
fn graph() -> TemporalGraph {
    let mut b = GraphBuilder::with_num_nodes(12);
    let mut t = 0i64;
    for round in 0..4u32 {
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                if (i + j + round) % 3 == 0 {
                    t += 1;
                    b.add_edge(i, j, t, 1.0).unwrap();
                    b.add_edge(i + 5, j + 5, t, 1.0).unwrap();
                }
            }
        }
        if round >= 2 {
            t += 1;
            b.add_edge(10, round, t, 1.0).unwrap();
            b.add_edge(10, round + 5, t, 1.0).unwrap();
        }
    }
    b.build().unwrap()
}

/// A reference time after the first two rounds, before node 10's edges.
const MID: Timestamp = Timestamp(10);

fn cfg(aggregator: AggregatorKind) -> EhnaConfig {
    EhnaConfig {
        dim: 8,
        num_walks: 3,
        walk_length: 3,
        batch_size: 16,
        epochs: 2,
        negatives: 3,
        lr: 5e-3,
        aggregator,
        heads: 2,
        kernel: Some(DecayKernel::Exponential { timescale: 50.0 }),
        ..EhnaConfig::tiny()
    }
}

/// Training is deterministic, so every call returns the same model.
fn trained(g: &TemporalGraph, aggregator: AggregatorKind) -> EhnaModel {
    let mut t = Trainer::new(g, cfg(aggregator)).unwrap();
    t.train();
    t.into_model()
}

fn bits(e: &NodeEmbeddings) -> Vec<u32> {
    e.as_slice().iter().map(|x| x.to_bits()).collect()
}

const AGGREGATORS: [AggregatorKind; 2] = [AggregatorKind::Lstm, AggregatorKind::Attn];

#[test]
fn snapshot_rows_equal_refreshed_rows_and_the_stream_baseline() {
    let g = graph();
    for kind in AGGREGATORS {
        let mut t = Trainer::from_model(&g, trained(&g, kind)).unwrap();
        let snapshot = t.embeddings();
        let mut refreshed = NodeEmbeddings::zeros(g.num_nodes(), 8);
        let all: Vec<NodeId> = g.nodes().collect();
        t.refresh_rows(&mut refreshed, &all).unwrap();
        assert_eq!(bits(&snapshot), bits(&refreshed), "{kind:?}: refresh_rows != embeddings");

        let opts = StreamOptions { finetune_steps: 0, ..StreamOptions::default() };
        let stream = StreamProcessor::new(g.clone(), t.into_model(), opts).unwrap();
        assert_eq!(
            bits(&snapshot),
            bits(stream.embeddings()),
            "{kind:?}: stream baseline != embeddings"
        );
    }
}

#[test]
fn inference_between_epochs_leaves_training_unchanged() {
    let g = graph();
    assert!(g.neighbors_before(NodeId(10), MID).is_empty(), "node 10 must have only later edges");
    assert_eq!(g.degree(NodeId(11)), 0, "node 11 must take the fallback");
    for kind in AGGREGATORS {
        let second_losses = |embed_between: bool| {
            let mut t = Trainer::new(&g, cfg(kind)).unwrap();
            t.train();
            if embed_between {
                t.embeddings_at(MID);
                t.embeddings();
                t.aggregate_targets(&[(NodeId(10), MID), (NodeId(3), MID)]);
            }
            t.train().epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(second_losses(false), second_losses(true), "{kind:?}: inference moved training");
    }
}

#[test]
fn time_slice_rows_ignore_batch_size_threads_and_company() {
    let g = graph();
    for kind in AGGREGATORS {
        let at = |batch_size: usize, threads: usize| {
            let mut model = trained(&g, kind);
            model.config.batch_size = batch_size;
            model.config.threads = threads;
            Trainer::from_model(&g, model).unwrap().embeddings_at(MID)
        };
        let reference = at(16, 1);
        for (batch_size, threads) in [(3, 1), (64, 1), (2, 2), (5, 4)] {
            assert_eq!(
                bits(&reference),
                bits(&at(batch_size, threads)),
                "{kind:?}: batch_size {batch_size}, threads {threads} moved embeddings_at"
            );
        }

        // A row aggregated alongside other targets equals the row
        // embeddings_at computes for its node.
        let mut t = Trainer::from_model(&g, trained(&g, kind)).unwrap();
        for picked in [vec![10u32], vec![4, 10, 7], vec![11, 0, 9, 3, 10]] {
            let targets: Vec<(NodeId, Timestamp)> =
                picked.iter().map(|&v| (NodeId(v), MID)).collect();
            let z = t.aggregate_targets(&targets);
            for (row, &v) in z.chunks_exact(8).zip(&picked) {
                let want: Vec<u32> = reference.get(NodeId(v)).iter().map(|x| x.to_bits()).collect();
                let got: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                assert_eq!(want, got, "{kind:?}: node {v} among {picked:?}");
            }
        }
    }
}
