//! Router scatter-gather overhead on a 100k-node table: queries/s and
//! p50/p99 latency for a standalone server vs 2-shard and 4-shard
//! clusters (brute-force and shard-local IVF), plus the router's
//! version-keyed answer cache cold vs warm — all answering the same
//! JSON knn requests over TCP. Writes `results/BENCH_router.json`
//! (methodology in the sibling `BENCH_router.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use ehna_cluster::{plan_shards_quant, Router, RouterConfig, ShardConfig, ShardServer};
use ehna_serve::{
    BruteForceIndex, EmbeddingStore, EngineConfig, IvfConfig, IvfIndex, KnnIndex, QueryEngine,
    RequestLimits, Server, ServerConfig,
};
use ehna_tgraph::{NodeEmbeddings, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const DIM: usize = 16;
const K: usize = 10;
const WARMUP: usize = 20;
const QUERIES: usize = 300;

fn big_table() -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(0xEC_7A);
    let data: Vec<f32> = (0..N * DIM).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    NodeEmbeddings::from_vec(DIM, data)
}

fn engine_mem(emb: NodeEmbeddings) -> Arc<QueryEngine> {
    let store = Arc::new(EmbeddingStore::new(emb, None).expect("store"));
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity: 0 }))
}

fn engine_file(snap: &Path, names: &Path, ivf: bool) -> Arc<QueryEngine> {
    let store = Arc::new(
        EmbeddingStore::open(snap.to_str().unwrap(), Some(names.to_str().unwrap()))
            .expect("shard store"),
    );
    let index: Box<dyn KnnIndex> = if ivf {
        Box::new(IvfIndex::build(Arc::clone(&store), IvfConfig::default()))
    } else {
        Box::new(BruteForceIndex::new(Arc::clone(&store)))
    };
    Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity: 0 }))
}

struct Measured {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// One persistent connection, sequential request/response; per-request
/// wall-clock gives the latency distribution, total time gives qps.
/// Node keys draw uniformly from `0..pool`: `pool == N` makes repeats
/// vanishingly rare (a cache-cold workload), a small pool makes the
/// warmup phase populate the router's answer cache so the timed phase
/// measures warm hits.
fn measure(addr: SocketAddr, pool: usize) -> Measured {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let mut r = BufReader::new(stream);
    let mut rng = StdRng::seed_from_u64(0x9E_11);
    let mut ask = |node: usize| -> Duration {
        let start = Instant::now();
        writeln!(w, r#"{{"op":"knn","node":"{node}","k":{K}}}"#).expect("write");
        w.flush().expect("flush");
        let mut line = String::new();
        r.read_line(&mut line).expect("read");
        assert!(line.contains(r#""ok":true"#), "bad response: {line}");
        start.elapsed()
    };
    // Warm every node in a small pool at least once so a cache-backed
    // target answers the timed phase entirely from its cache.
    for i in 0..WARMUP.max(pool.min(N)) {
        ask(if pool < N { i % pool } else { rng.gen_range(0..N) });
    }
    let mut lat = Vec::with_capacity(QUERIES);
    let begin = Instant::now();
    for _ in 0..QUERIES {
        lat.push(ask(rng.gen_range(0..pool)));
    }
    let total = begin.elapsed();
    lat.sort();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize].as_secs_f64() * 1e3;
    Measured { qps: QUERIES as f64 / total.as_secs_f64(), p50_ms: pct(0.50), p99_ms: pct(0.99) }
}

fn json_entry(label: &str, m: &Measured) -> String {
    format!(
        "\"{label}\": {{\"queries_per_s\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}",
        m.qps, m.p50_ms, m.p99_ms
    )
}

fn bench_router(c: &mut Criterion) {
    let emb = big_table();
    let rows =
        QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F32)).expect("encode");
    let dir = std::env::temp_dir().join("ehna_bench_router");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");

    // Standalone oracle: one engine over the unsplit table.
    let standalone =
        Server::bind_with("127.0.0.1:0", engine_mem(emb.clone()), ServerConfig::default())
            .expect("bind standalone")
            .spawn()
            .expect("spawn standalone");
    println!("router bench: measuring standalone ({N} nodes, dim {DIM})");
    let base = measure(standalone.addr(), N);
    println!(
        "  standalone: {:.1} q/s, p50 {:.3} ms, p99 {:.3} ms",
        base.qps, base.p50_ms, base.p99_ms
    );

    let mut entries = vec![json_entry("standalone", &base)];
    // (label, shards, ivf shards, router cache entries, node pool).
    // pool == N is cache-cold (repeats are vanishingly rare in 100k);
    // the small pool makes every timed query a warm cache hit.
    let configs: [(&str, u32, bool, usize, usize); 5] = [
        ("shards_2", 2, false, 0, N),
        ("shards_4", 4, false, 0, N),
        ("shards_4_ivf", 4, true, 0, N),
        ("shards_2_cache_cold", 2, false, 1024, N),
        ("shards_2_cache_warm", 2, false, 1024, 64),
    ];
    for (label, shards, ivf, cache, pool) in configs {
        let shard_dir = dir.join(format!("s{shards}"));
        let manifest = if shard_dir.exists() {
            ehna_cluster::ClusterManifest::load(&shard_dir).expect("manifest")
        } else {
            std::fs::create_dir_all(&shard_dir).expect("shard dir");
            plan_shards_quant(&rows, None, shards, &shard_dir).expect("plan")
        };
        let mut replicas = Vec::new();
        let mut teardown = Vec::new();
        for (i, entry) in manifest.shards.iter().enumerate() {
            let shard = ShardServer::bind(
                "127.0.0.1:0",
                engine_file(&shard_dir.join(&entry.snapshot), &shard_dir.join(&entry.names), ivf),
                RequestLimits::default(),
                None,
                ShardConfig { shard_id: i as u32, ..Default::default() },
            )
            .expect("bind shard");
            replicas.push(vec![shard.local_addr().expect("addr")]);
            teardown.push(shard.spawn().expect("spawn shard"));
        }
        let router = Router::new(
            manifest,
            replicas,
            RequestLimits::default(),
            RouterConfig {
                probe_interval: Duration::ZERO,
                cache_capacity: cache,
                ..Default::default()
            },
        )
        .expect("router");
        let front =
            Server::bind_handler("127.0.0.1:0", Arc::new(router) as _, ServerConfig::default())
                .expect("bind router")
                .spawn()
                .expect("spawn router");
        println!("router bench: measuring {label}");
        let m = measure(front.addr(), pool);
        println!("  {label}: {:.1} q/s, p50 {:.3} ms, p99 {:.3} ms", m.qps, m.p50_ms, m.p99_ms);
        entries.push(json_entry(label, &m));
        front.shutdown();
        for h in teardown {
            h.shutdown();
        }
    }
    standalone.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"router_scatter_gather\",\n  \"nodes\": {N}, \"dim\": {DIM}, \
         \"k\": {K},\n  \"queries\": {QUERIES}, \"warmup\": {WARMUP},\n  \
         \"host_cpus\": {host_cpus},\n  {}\n}}\n",
        entries.join(",\n  ")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_router.json");
    match std::fs::write(out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }

    // A light criterion group so the harness has a registered benchmark.
    let engine = engine_mem(big_table());
    let mut group = c.benchmark_group("router_components");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let mut probe = 0usize;
    group.bench_function("standalone_knn_inproc", |b| {
        b.iter(|| {
            probe = (probe + 7919) % N;
            criterion::black_box(
                ehna_serve::handle_line(
                    &engine,
                    &RequestLimits::default(),
                    &format!(r#"{{"op":"knn","node":"{probe}","k":{K}}}"#),
                )
                .to_string(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
