//! The EHNA aggregation: one training step (forward + backward + update)
//! and one inference batch, at the shapes these series were first
//! recorded at (d=32, k=5, l=5, batch 64).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ehna_core::{EhnaConfig, Trainer};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_tgraph::{NodeId, Timestamp};
use std::time::Duration;

fn bench_aggregation(c: &mut Criterion) {
    let g = generate(Dataset::DiggLike, Scale::Tiny, 1);
    let cfg = EhnaConfig {
        dim: 32,
        num_walks: 5,
        walk_length: 5,
        batch_size: 64,
        epochs: 8,
        lr: 2e-3,
        seed: 7,
        ..Default::default()
    };

    // A fixed batch of late edges (rich history).
    let edges: Vec<(NodeId, NodeId, Timestamp)> =
        g.edges().iter().rev().take(32).map(|e| (e.src, e.dst, e.t)).collect();
    let infer_targets: Vec<(NodeId, Timestamp)> = edges.iter().map(|&(x, _, t)| (x, t)).collect();

    let mut group = c.benchmark_group("aggregation");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    group.bench_function("train_batch_32edges_k5_l5_d32", |b| {
        b.iter_batched(
            || Trainer::new(&g, cfg.clone()).expect("valid config"),
            |mut trainer| black_box(trainer.train_batch(&edges, 0)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("inference_batch_32targets", |b| {
        let mut trainer = Trainer::new(&g, cfg.clone()).expect("valid config");
        trainer.train_batch(&edges, 0); // seed BN running stats
        b.iter(|| black_box(trainer.aggregate_targets(&infer_targets).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_aggregation);
criterion_main!(benches);
