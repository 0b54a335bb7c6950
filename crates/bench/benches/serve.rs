//! Serving-path benchmarks: brute-force vs IVF top-k search on snapshots
//! at 10k and 100k nodes, IVF search over an int8-quantized 100k table
//! (the shape the end-to-end `serve` workload shards), plus the IVF build
//! cost so the index's amortization point is visible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ehna_serve::{BruteForceIndex, EmbeddingStore, IvfConfig, IvfIndex, KnnIndex};
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DIM: usize = 64;
const K: usize = 10;

/// Clustered points, the shape trained embeddings actually take.
fn clustered_table(n: usize, blobs: usize, seed: u64) -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> =
        (0..blobs).map(|_| (0..DIM).map(|_| rng.gen_range(-8.0f32..8.0)).collect()).collect();
    let mut data = Vec::with_capacity(n * DIM);
    for v in 0..n {
        let c = &centers[v % blobs];
        data.extend(c.iter().map(|x| x + rng.gen_range(-0.5f32..0.5)));
    }
    NodeEmbeddings::from_vec(DIM, data)
}

fn clustered_store(n: usize, blobs: usize, seed: u64) -> Arc<EmbeddingStore> {
    Arc::new(EmbeddingStore::new(clustered_table(n, blobs, seed), None).expect("store"))
}

fn bench_knn(c: &mut Criterion) {
    for &n in &[10_000usize, 100_000] {
        let store = clustered_store(n, 128, 0xBE_7C);
        let brute = BruteForceIndex::new(Arc::clone(&store));
        let ivf = IvfIndex::build(Arc::clone(&store), IvfConfig::default());

        let mut group = c.benchmark_group(format!("knn_{}k", n / 1000));
        group.sample_size(10);
        let mut probe = 0u32;
        group.bench_function("brute", |b| {
            b.iter(|| {
                probe = (probe + 7919) % n as u32;
                let q = store.row(NodeId(probe)).unwrap();
                black_box(brute.search(&q, K))
            })
        });
        group.bench_function("ivf", |b| {
            b.iter(|| {
                probe = (probe + 7919) % n as u32;
                let q = store.row(NodeId(probe)).unwrap();
                black_box(ivf.search(&q, K))
            })
        });
        group.finish();
    }
}

/// IVF search over an int8 100k x 64 table with 64 lists, 4 probed. The
/// mean candidates scored per query is printed first, so the time per
/// iteration divided by it is the per-candidate cost.
fn bench_ivf_int8(c: &mut Criterion) {
    let n = 100_000;
    let emb = clustered_table(n, 128, 0xBE_7C);
    let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::Int8)).expect("int8");
    let store = Arc::new(EmbeddingStore::from_quant(q, None).expect("store"));
    let cfg =
        IvfConfig { num_clusters: Some(64), nprobe: 4, kmeans_iters: 5, ..Default::default() };
    let ivf = IvfIndex::build(Arc::clone(&store), cfg);
    let probes: Vec<Vec<f32>> =
        (0..64u32).map(|i| store.row(NodeId(i * 1543 % n as u32)).unwrap().into_owned()).collect();
    let scanned: usize = probes.iter().map(|q| ivf.search_explained(q, K).1.scanned).sum();
    println!("ivf_int8_100k: {} candidates per query", scanned / probes.len());

    let mut group = c.benchmark_group("ivf_int8_100k");
    group.sample_size(10);
    let mut probe = 0usize;
    group.bench_function("nprobe4", |b| {
        b.iter(|| {
            probe = (probe + 1) % probes.len();
            black_box(ivf.search(&probes[probe], K))
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let store = clustered_store(10_000, 128, 0xBE_7C);
    let mut group = c.benchmark_group("ivf_build_10k");
    group.sample_size(10);
    group.bench_function("default", |b| {
        b.iter(|| black_box(IvfIndex::build(Arc::clone(&store), IvfConfig::default())))
    });
    group.finish();
}

criterion_group!(benches, bench_knn, bench_ivf_int8, bench_build);
criterion_main!(benches);
