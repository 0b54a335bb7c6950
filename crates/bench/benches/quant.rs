//! EHNQ artifact benchmarks on a 100k x 16 clustered table: bytes/node,
//! artifact open time (heap full-verify vs mmap O(1)), in-process
//! brute-force queries/s over each format's distance kernel, and
//! recall@10 against the f32 oracle. Writes `results/BENCH_quant.json`
//! (methodology and a snapshot table in the sibling `BENCH_quant.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use ehna_serve::{BruteForceIndex, EmbeddingStore, EngineConfig, KnnIndex, QueryEngine};
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const DIM: usize = 16;
const K: usize = 10;
const QUERIES: usize = 300;
const PROBES: usize = 100;
const OPEN_REPS: usize = 5;

/// Clustered two-hot blobs with grid jitter — the same geometry the
/// `quant_serving` recall gate uses, scaled up (see that suite for why
/// grid jitter: it measures format fidelity, not codebook noise).
fn big_table() -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(0xE49);
    let centers = 1000;
    let mut data = Vec::with_capacity(N * DIM);
    for i in 0..N {
        let c = i % centers;
        let a = c % DIM;
        let b = (a + c / DIM + 1) % DIM;
        for d in 0..DIM {
            // Magnitude 6.96875 with 0.25-step jitter puts every value
            // on both quantizers' grids exactly: the span is 7.96875 so
            // the int8 step is 1/32 (0.25 = 8 steps, dyadic and exact
            // in f32), and every support value is f16-representable.
            // Recall then measures format fidelity on representable
            // data, not grid-misalignment noise — formats still earn
            // their number through their real encode/decode/LUT paths.
            let center = if d == a || d == b { 6.96875 } else { 0.0 };
            data.push(center + (rng.gen_range(0u32..5) as f32 - 2.0) * 0.25);
        }
    }
    NodeEmbeddings::from_vec(DIM, data)
}

fn brute_engine(store: Arc<EmbeddingStore>) -> Arc<QueryEngine> {
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity: 0 }))
}

/// Best-of-`OPEN_REPS` open time in milliseconds.
fn open_ms(path: &Path, mmap: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..OPEN_REPS {
        let start = Instant::now();
        let q = QuantizedEmbeddings::open_path(path, mmap).expect("open");
        // Touch one row so lazy mappings can't cheat the comparison
        // into measuring nothing at all.
        criterion::black_box(q.row(0).len());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn measure_qps(engine: &QueryEngine) -> f64 {
    let mut rng = StdRng::seed_from_u64(0x9E11);
    let begin = Instant::now();
    for _ in 0..QUERIES {
        let probe = NodeId(rng.gen_range(0..N as u32));
        criterion::black_box(engine.knn_node(probe, K, false).expect("knn"));
    }
    QUERIES as f64 / begin.elapsed().as_secs_f64()
}

fn bench_quant(c: &mut Criterion) {
    let dir = std::env::temp_dir().join("ehna_bench_quant");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let emb = big_table();

    // Ground truth from the dense f32 oracle.
    println!("quant bench: building f32 oracle ({N} nodes, dim {DIM})");
    let oracle = brute_engine(Arc::new(EmbeddingStore::new(emb.clone(), None).expect("store")));
    let mut rng = StdRng::seed_from_u64(0x7AB1);
    let probes: Vec<NodeId> = (0..PROBES).map(|_| NodeId(rng.gen_range(0..N as u32))).collect();
    let truth: Vec<Vec<NodeId>> = probes
        .iter()
        .map(|&p| {
            oracle.knn_node(p, K, false).expect("oracle").neighbors.iter().map(|n| n.id).collect()
        })
        .collect();

    let mut entries = Vec::new();
    for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq] {
        let mut spec = QuantSpec::new(format);
        spec.pq_m = 8;
        let label = format.label();
        println!("quant bench: encoding {label}");
        let encode_start = Instant::now();
        let q = QuantizedEmbeddings::encode(&emb, &spec).expect("encode");
        let encode_ms = encode_start.elapsed().as_secs_f64() * 1e3;
        let path = dir.join(format!("{label}.ehnq"));
        q.save_path(&path).expect("save");
        let file_bytes = q.as_bytes().len();
        let code_bpn = q.code_bytes_per_node();

        let heap_ms = open_ms(&path, false);
        let mmap_ms = open_ms(&path, true);

        let store = Arc::new(
            EmbeddingStore::open_with(path.to_str().unwrap(), None, true).expect("quant store"),
        );
        let engine = brute_engine(store);
        let qps = measure_qps(&engine);
        let mut hit = 0usize;
        for (p, want) in probes.iter().zip(&truth) {
            let got = engine.knn_node(*p, K, false).expect("knn");
            hit += got.neighbors.iter().filter(|n| want.contains(&n.id)).count();
        }
        let recall = hit as f64 / (PROBES * K) as f64;
        println!(
            "  {label}: {code_bpn} code B/node, open heap {heap_ms:.2} ms / mmap {mmap_ms:.3} ms, \
             {qps:.1} q/s, recall@{K} {recall:.3}"
        );
        entries.push(format!(
            "\"{label}\": {{\"code_bytes_per_node\": {code_bpn}, \"file_bytes\": {file_bytes}, \
             \"encode_ms\": {encode_ms:.1}, \"open_heap_ms\": {heap_ms:.3}, \
             \"open_mmap_ms\": {mmap_ms:.3}, \"queries_per_s\": {qps:.1}, \
             \"recall_at_{K}\": {recall:.4}}}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"quant_artifacts\",\n  \"nodes\": {N}, \"dim\": {DIM}, \"k\": {K},\n  \
         \"queries\": {QUERIES}, \"probes\": {PROBES}, \"open_reps\": {OPEN_REPS},\n  \
         \"host_cpus\": {host_cpus},\n  {}\n}}\n",
        entries.join(",\n  ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_quant.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }

    // A light criterion group over the per-format distance kernels so
    // the harness has registered benchmarks with statistical output.
    let mut group = c.benchmark_group("quant_scan");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq] {
        let mut spec = QuantSpec::new(format);
        spec.pq_m = 8;
        let q = QuantizedEmbeddings::encode(&emb, &spec).expect("encode");
        let query: Vec<f32> = emb.get(NodeId(17)).to_vec();
        group.bench_function(format!("full_scan_{}", format.label()), |b| {
            b.iter(|| {
                let scorer = q.scorer(&query);
                let mut acc = 0f64;
                for i in 0..q.num_nodes() {
                    acc += scorer.dist(i);
                }
                criterion::black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quant);
criterion_main!(benches);
