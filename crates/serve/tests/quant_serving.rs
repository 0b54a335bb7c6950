//! Serving-quality gates for quantized (EHNQ) snapshots: recall against
//! the f32 brute-force oracle, compression floors, tie-exact ordering
//! across index kinds (the pinned f64 distance-accumulation contract),
//! heap/mmap answer identity under concurrent snapshot churn, and
//! engine-level canonical key resolution.
//!
//! CI runs this suite as the quant serving gate (scripts/ci.sh).

use ehna_serve::{
    handle_line, BruteForceIndex, EmbeddingStore, EngineConfig, IvfConfig, IvfIndex, Json,
    KnnIndex, QueryEngine, RequestLimits,
};
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const LOSSY: [QuantFormat; 3] = [QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq];

/// Clustered blobs: `centers` well-separated centers with small jitter —
/// realistic enough that recall is a meaningful gate rather than a
/// coin-flip over uniform noise.
fn blobs(n: usize, dim: usize, centers: usize, seed: u64) -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = i % centers;
        // Two-hot centers at a fixed magnitude: distinct (a, b) dim
        // pairs give `centers` well-separated blobs while keeping every
        // dimension's value range tight, so int8's per-dimension grid
        // stays fine-grained (range scales the grid step).
        let a = c % dim;
        let b = (a + c / dim + 1) % dim;
        for d in 0..dim {
            let center = if d == a || d == b { 8.0 } else { 0.0 };
            // Jitter on a 5-level grid rather than a continuum: the
            // within-blob geometry then has finite support a 256-entry
            // PQ codebook can actually represent, so the recall gate
            // measures format fidelity, not irreducible codebook noise
            // on data with no structure below the noise floor.
            let jitter = (rng.gen_range(0u32..5) as f32 - 2.0) * 0.2;
            data.push(center + jitter);
        }
    }
    NodeEmbeddings::from_vec(dim, data)
}

fn brute_store(store: Arc<EmbeddingStore>) -> Arc<QueryEngine> {
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity: 0 }))
}

#[test]
fn recall_at_10_stays_above_095_for_every_format() {
    // The ISSUE acceptance gate: every quantized format must reach
    // recall@10 >= 0.95 against the exact f32 oracle on clustered data,
    // and the byte formats must actually compress (int8 and pq at least
    // 4x fewer code bytes per node than dense f32).
    const N: usize = 2000;
    const DIM: usize = 16;
    const K: usize = 10;
    // 100 centers -> ~20 points per blob: a query's true top-10 sits
    // inside its own blob with real distance gaps, so recall measures
    // quantization error rather than coin-flips between dense ties.
    let emb = blobs(N, DIM, 100, 0x51AB);
    let dense = brute_store(Arc::new(EmbeddingStore::new(emb.clone(), None).unwrap()));
    let probes: Vec<NodeId> = (0..50).map(|q| NodeId((q * 37 % N) as u32)).collect();
    let truth: Vec<Vec<NodeId>> = probes
        .iter()
        .map(|&p| dense.knn_node(p, K, false).unwrap().neighbors.iter().map(|n| n.id).collect())
        .collect();

    for format in LOSSY {
        let mut spec = QuantSpec::new(format);
        spec.pq_m = 8;
        let q = QuantizedEmbeddings::encode(&emb, &spec).unwrap();
        let code_bpn = q.code_bytes_per_node();
        if matches!(format, QuantFormat::Int8 | QuantFormat::Pq) {
            assert!(
                DIM * 4 >= 4 * code_bpn,
                "{format:?}: {code_bpn} code bytes/node misses the 4x floor vs {}",
                DIM * 4
            );
        }
        let engine = brute_store(Arc::new(EmbeddingStore::from_quant(q, None).unwrap()));
        let mut hit = 0usize;
        for (p, want) in probes.iter().zip(&truth) {
            let got = engine.knn_node(*p, K, false).unwrap();
            hit += got.neighbors.iter().filter(|n| want.contains(&n.id)).count();
        }
        let recall = hit as f64 / (probes.len() * K) as f64;
        assert!(recall >= 0.95, "{format:?}: recall@{K} = {recall:.3} < 0.95");
    }
}

#[test]
fn tie_heavy_ordering_is_identical_across_brute_and_full_probe_ivf() {
    // The pinned distance contract (plain f64 accumulation in ascending
    // dimension order — no FMA, no reassociation) means brute force and
    // an IVF index probing *every* cluster must produce bit-identical
    // (dist, id) rankings for any format, even when dozens of rows are
    // exactly equidistant. A contract drift in either path shows up here
    // as a tie broken differently.
    const N: usize = 120;
    const DIM: usize = 8;
    const K: usize = 25;
    let data: Vec<f32> = (0..N * DIM).map(|i| ((i * 7) % 5) as f32).collect();
    let emb = NodeEmbeddings::from_vec(DIM, data);

    let stores =
        [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq].map(|format| {
            let q = QuantizedEmbeddings::encode(&emb, &spec8(format)).unwrap();
            Arc::new(EmbeddingStore::from_quant(q, None).unwrap())
        });
    for store in stores {
        let format = store.format_label();
        let brute = brute_store(Arc::clone(&store));
        let ivf_index = IvfIndex::build(
            Arc::clone(&store),
            IvfConfig { num_clusters: Some(6), nprobe: 6, ..Default::default() },
        );
        assert_eq!(ivf_index.nprobe(), 6, "full probe required for exactness");
        let ivf = Arc::new(QueryEngine::new(
            Arc::clone(&store),
            Box::new(ivf_index),
            EngineConfig { workers: 1, cache_capacity: 0 },
        ));
        for probe in 0..N as u32 {
            let a = brute.knn_node(NodeId(probe), K, false).unwrap().neighbors;
            let b = ivf.knn_node(NodeId(probe), K, false).unwrap().neighbors;
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.id, x.dist.to_bits()),
                    (y.id, y.dist.to_bits()),
                    "{format}: node {probe} tie broken differently"
                );
            }
        }
    }
}

fn spec8(format: QuantFormat) -> QuantSpec {
    let mut spec = QuantSpec::new(format);
    spec.pq_m = 8;
    spec
}

#[test]
fn mmap_answers_match_heap_under_concurrent_reload_churn() {
    // Hot-swap churn on a live mmap-backed engine: a writer thread keeps
    // re-opening and swapping the same artifact (the no-memory-doubling
    // reload path) while the reader compares every answer against a
    // quiescent heap-backed engine. Any generation must answer exactly
    // like the heap store at any interleaving.
    let dir = std::env::temp_dir().join("ehna_quant_serving_churn");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let emb = blobs(300, 8, 8, 0xC0DE);
    let q = QuantizedEmbeddings::encode(&emb, &spec8(QuantFormat::Int8)).unwrap();
    let path = dir.join("emb.int8.ehnq");
    q.save_path(&path).unwrap();

    let open = |mmap: bool| {
        Arc::new(EmbeddingStore::open_with(path.to_str().unwrap(), None, mmap).unwrap())
    };
    let heap = brute_store(open(false));
    let mapped_store = open(true);
    assert_eq!(mapped_store.is_mmap(), cfg!(unix));
    let mapped = brute_store(mapped_store);

    let battery: Vec<String> = (0..30)
        .map(|i| format!(r#"{{"op":"knn","node":"{}","k":7}}"#, i * 11 % 300))
        .chain((0..5).map(|i| format!(r#"{{"op":"score","pairs":[["{i}","{}"]]}}"#, 299 - i)))
        .collect();
    let limits = RequestLimits::default();
    let expected: Vec<String> =
        battery.iter().map(|line| handle_line(&heap, &limits, line).to_string()).collect();

    let churn_engine = Arc::clone(&mapped);
    let path_for_churn = path.clone();
    let churn = std::thread::spawn(move || {
        for _ in 0..25 {
            let store = Arc::new(
                EmbeddingStore::open_with(path_for_churn.to_str().unwrap(), None, true).unwrap(),
            );
            let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
            churn_engine.swap_snapshot(store, index);
            std::thread::yield_now();
        }
    });
    for round in 0..40 {
        for (line, want) in battery.iter().zip(&expected) {
            let got = handle_line(&mapped, &limits, line).to_string();
            assert_eq!(&got, want, "round {round}, request {line}");
        }
    }
    churn.join().unwrap();
    // The churned engine ends many generations in, still mmap-backed.
    assert!(mapped.snapshot_version().0 > 1);
    assert_eq!(mapped.store().is_mmap(), cfg!(unix));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_rejects_non_canonical_node_keys() {
    // Satellite regression: `resolve` once fell back to a bare
    // `parse::<u32>`, so "007", "+3", or " 3" aliased real rows (and
    // split the answer cache between spellings). The engine must treat
    // every non-canonical spelling as an unknown node — on quantized
    // stores exactly like dense ones.
    let emb = blobs(20, 4, 4, 7);
    let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F16)).unwrap();
    let engines = [
        brute_store(Arc::new(EmbeddingStore::new(emb, None).unwrap())),
        brute_store(Arc::new(EmbeddingStore::from_quant(q, None).unwrap())),
    ];
    let limits = RequestLimits::default();
    for engine in &engines {
        for bad in ["007", "+3", " 3", "3 ", "0x3", "4294967296", ""] {
            let resp =
                handle_line(engine, &limits, &format!(r#"{{"op":"knn","node":"{bad}","k":2}}"#));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "key '{bad}' accepted: {resp}");
            assert!(
                resp.get("error").and_then(Json::as_str).unwrap().contains("unknown node"),
                "key '{bad}': {resp}"
            );
        }
        for good in ["0", "3", "19"] {
            let resp =
                handle_line(engine, &limits, &format!(r#"{{"op":"knn","node":"{good}","k":2}}"#));
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "key '{good}' rejected: {resp}");
        }
    }
}
