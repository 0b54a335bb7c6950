//! End-to-end integration: dataset generation → EHNA training → both
//! paper tasks, asserting the learned embeddings beat trivial baselines.

use ehna::core::{EhnaConfig, Trainer};
use ehna::datasets::{generate, Dataset, Scale};
use ehna::eval::{EdgeOperator, LinkPredictionConfig, LinkPredictionTask};
use ehna::tgraph::{QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_config(dim: usize) -> EhnaConfig {
    EhnaConfig {
        dim,
        num_walks: 4,
        walk_length: 4,
        batch_size: 128,
        epochs: 3,
        lr: 2e-3,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn ehna_learns_link_prediction_on_social_network() {
    let graph = generate(Dataset::DiggLike, Scale::Tiny, 3);
    let task =
        LinkPredictionTask::prepare(&graph, LinkPredictionConfig { seed: 5, ..Default::default() });
    let mut trainer = Trainer::new(task.train_graph(), quick_config(24)).expect("config");
    let report = trainer.train();
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    let emb = trainer.into_embeddings();

    let m = task.evaluate(&emb, EdgeOperator::WeightedL2);
    // Materially better than chance on a real temporal task.
    assert!(m.auc > 0.60, "EHNA link-pred AUC only {:.3}", m.auc);

    // And better than untrained (raw init) embeddings.
    let untrained = {
        let t = Trainer::new(task.train_graph(), quick_config(24)).expect("config");
        t.model().raw_embeddings()
    };
    let m0 = task.evaluate(&untrained, EdgeOperator::WeightedL2);
    assert!(
        m.auc > m0.auc + 0.05,
        "training did not help: {:.3} vs untrained {:.3}",
        m.auc,
        m0.auc
    );
}

#[test]
fn ehna_separates_recent_edges_on_social_network() {
    // Regression test of the verified behavior (EXPERIMENTS.md finding 2):
    // the aggregated readouts separate *recent* edge endpoints from random
    // pairs, even though global dot-product reconstruction is weak at this
    // scale.
    use ehna::tgraph::NodeId;
    use rand::Rng;
    let graph = generate(Dataset::DiggLike, Scale::Tiny, 42);
    // The verified configuration (see EXPERIMENTS.md): short-budget runs
    // can pass through an inverted transient before separating. The
    // budget was re-calibrated from 12 to 16 epochs when the GEMM
    // kernels switched to fused multiply-add chains — same math, new
    // rounding, so this seed's trajectory shifted (ratio 0.82 at 12
    // epochs, 0.55 at 16).
    let cfg = EhnaConfig {
        dim: 32,
        num_walks: 4,
        walk_length: 4,
        batch_size: 64,
        epochs: 16,
        lr: 2e-3,
        seed: 42,
        ..Default::default()
    };
    let mut trainer = Trainer::new(&graph, cfg).expect("config");
    trainer.train();
    let d = 32usize;
    let recent: Vec<_> = graph.edges().iter().rev().take(48).cloned().collect();
    let mut targets: Vec<(NodeId, ehna::tgraph::Timestamp)> = Vec::new();
    targets.extend(recent.iter().map(|e| (e.src, e.t)));
    targets.extend(recent.iter().map(|e| (e.dst, e.t)));
    let mut rng = StdRng::seed_from_u64(9);
    for e in &recent {
        loop {
            let v = NodeId(rng.gen_range(0..graph.num_nodes() as u32));
            if v != e.src && v != e.dst && graph.degree(v) > 0 {
                targets.push((v, e.t));
                break;
            }
        }
    }
    let z = trainer.aggregate_targets(&targets);
    let b = recent.len();
    let row = |i: usize| &z[i * d..(i + 1) * d];
    let sq = |a: &[f32], c: &[f32]| -> f64 {
        a.iter().zip(c).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum()
    };
    let (mut dp, mut dn) = (0.0, 0.0);
    for i in 0..b {
        dp += sq(row(i), row(b + i));
        dn += sq(row(i), row(2 * b + i));
    }
    assert!(
        dp < 0.8 * dn,
        "recent-edge endpoints not closer than random pairs: d_pos {dp:.3} vs d_neg {dn:.3}"
    );
}

#[test]
fn bidirectional_objective_on_bipartite_network() {
    let graph = generate(Dataset::TmallLike, Scale::Tiny, 5);
    let cfg = EhnaConfig { bidirectional: true, ..quick_config(16) };
    let mut trainer = Trainer::new(&graph, cfg).expect("config");
    let report = trainer.train();
    // The Eq. 7 objective must optimize stably on bipartite data...
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    let first = report.epoch_losses[0];
    let last = *report.epoch_losses.last().unwrap();
    assert!(last < first, "no learning: {first:.4} -> {last:.4}");
    // ...and inference must cover every node (users and items).
    let emb = trainer.into_embeddings();
    assert_eq!(emb.num_nodes(), graph.num_nodes());
    assert!(emb.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn final_embeddings_are_normalized_readouts() {
    let graph = generate(Dataset::YelpLike, Scale::Tiny, 6);
    let mut trainer = Trainer::new(&graph, quick_config(16)).expect("config");
    trainer.train_epoch();
    let emb = trainer.into_embeddings();
    for v in graph.nodes() {
        let norm: f32 = emb.get(v).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-2, "node {v:?} norm {norm}");
    }
}

#[test]
fn embeddings_snapshot_roundtrip_through_bytes() {
    let graph = generate(Dataset::DiggLike, Scale::Tiny, 7);
    let mut trainer = Trainer::new(&graph, quick_config(16)).expect("config");
    trainer.train_epoch();
    let emb = trainer.into_embeddings();
    // The artifact `ehna train --out` writes: the lossless EHNQ f32 table.
    let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F32)).expect("encode");
    let back = QuantizedEmbeddings::from_bytes(q.as_bytes()).expect("roundtrip");
    assert_eq!(back.decode_all(), emb);
}
