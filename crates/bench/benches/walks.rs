//! Walk-engine throughput: the temporal walk (EHNA's inner loop), the
//! static node2vec walk, and the CTDNE forward walk.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ehna_datasets::{generate, Dataset, Scale};
use ehna_tgraph::Timestamp;
use ehna_walks::{
    CtdneConfig, CtdneWalker, Node2VecConfig, Node2VecWalker, TemporalWalkConfig, TemporalWalker,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_walks(c: &mut Criterion) {
    let g = generate(Dataset::DiggLike, Scale::Small, 1);
    let t_ref = g.max_time();
    let starts: Vec<_> = g.nodes().filter(|&v| g.degree(v) > 2).collect();

    let mut group = c.benchmark_group("walks");
    group.bench_function("temporal_walk_l10", |b| {
        let walker = TemporalWalker::new(&g, TemporalWalkConfig::for_graph(&g));
        let mut rng = StdRng::seed_from_u64(1);
        let mut i = 0usize;
        b.iter(|| {
            let v = starts[i % starts.len()];
            i += 1;
            black_box(walker.walk(v, t_ref, &mut rng).len())
        })
    });
    // The stream's refresh traffic: dblp-like yearly timestamps, ℓ = 5,
    // each walk from an active node just after its latest interaction.
    let dblp = generate(Dataset::DblpLike, Scale::Small, 1);
    let refresh: Vec<_> = dblp
        .nodes()
        .filter_map(|v| dblp.neighbors(v).last().map(|n| (v, Timestamp(n.t.0 + 1))))
        .collect();
    group.bench_function("temporal_walk_dblp_l5", |b| {
        let cfg = TemporalWalkConfig { length: 5, ..TemporalWalkConfig::for_graph(&dblp) };
        let walker = TemporalWalker::new(&dblp, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let mut i = 0usize;
        b.iter(|| {
            let (v, t) = refresh[i % refresh.len()];
            i += 1;
            black_box(walker.walk(v, t, &mut rng).len())
        })
    });
    group.bench_function("node2vec_walk_l80", |b| {
        let walker = Node2VecWalker::new(&g, Node2VecConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = 0usize;
        b.iter(|| {
            let v = starts[i % starts.len()];
            i += 1;
            black_box(walker.walk(v, &mut rng).len())
        })
    });
    group.bench_function("ctdne_walk_l80", |b| {
        let walker = CtdneWalker::new(&g, CtdneConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut i = 0usize;
        let m = g.num_edges();
        b.iter(|| {
            let e = i % m;
            i += 1;
            black_box(walker.walk_from_edge(e, &mut rng).len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
