//! `serve`: the whole read path and none of training. A seeded,
//! clustered 100k × 64 table is quantized to int8 EHNQ and split into two
//! shards; each shard is opened by mmap with a shard-local IVF index
//! behind an EHNP `ShardServer`, and a caching `Router` sits behind the
//! JSON `Server`. Open-loop traffic — mostly `knn` by Zipf-drawn node
//! key, some batched `score` — runs at a ladder of fixed rates from one
//! process over two connections.
//!
//! The traced run replays a fixed sample of requests in process, calling
//! each layer's public function on its own with a span around it.

use crate::load::{run_step, Step, StepReport, Zipf};
use crate::stats;
use crate::trace::Tracer;
use crate::{scratch_dir, Args, Outcome};
use ehna_cluster::{
    plan_shards_quant, MuxClient, Router, RouterConfig, ShardConfig, ShardHandle, ShardServer,
};
use ehna_serve::LineHandler;
use ehna_serve::{
    handle_line, BruteForceIndex, EmbeddingStore, EngineConfig, IvfConfig, IvfIndex, Json,
    KnnIndex, Neighbor, QueryEngine, RequestLimits, SearchInfo, Server, ServerConfig, ServerHandle,
};
use ehna_tgraph::quant::sq_dist_f64;
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 100_000;
const TABLE_SEED: u64 = 0x7AB1E;
const DIM: usize = 64;
/// Gaussian-ish clusters in the generated table; IVF needs structure to
/// prune, so a query scans a small share of a shard.
const CENTERS: usize = 512;
const SHARDS: u32 = 2;
const K: usize = 10;
const SETUPS: usize = 3;
/// IVF lists per shard and lists probed per query.
const IVF_CLUSTERS: usize = 64;
const IVF_NPROBE: usize = 4;
const IVF_ITERS: usize = 5;
/// Router answer-cache entries.
const ROUTER_CACHE: usize = 1024;
/// Zipf exponent of the node keys. With the 1024-entry router cache this
/// keeps the hit share near 0.2, well away from 0.5, so p50 stays on the
/// uncached path instead of jumping between the two.
const ZIPF_EXPONENT: f64 = 0.8;
/// Which nodes are popular is part of the workload, like the table: a
/// fixed rank-to-node order, so a run's seed picks the request sequence
/// but not whether the hot nodes sit in large or small IVF lists.
const POPULARITY_SEED: u64 = 0x2B1F;
/// Share of requests that are batched `score` requests, and their size.
const SCORE_SHARE: f64 = 0.1;
const SCORE_PAIRS: usize = 8;
/// The reference rate at which `p50_ms` and `tail_ms` are read: a small
/// share of capacity on a 2-CPU host (1,800–2,100 q/s), so requests
/// rarely queue behind each other and the figures describe the path.
const REFERENCE_RATE: f64 = 250.0;
/// Rates above the reference, 15% apart; `rate_per_s` is the goodput of
/// the highest step that meets the latency limit without a growing
/// backlog. The ladder stops at the first step that does not.
const LADDER: [f64; 10] =
    [800.0, 920.0, 1060.0, 1220.0, 1400.0, 1610.0, 1850.0, 2130.0, 2450.0, 2820.0];
/// Percentile `tail_ms` reports at the reference rate (170 samples beyond
/// it). Over ten runs the p99 of the same step read 1.2–3.0 ms, because a
/// handful of requests per run take several milliseconds, so its spread
/// (0.37) exceeded any usable bound; p90 stays below those requests. The
/// p99 is kept in the record.
const TAIL_PCT: f64 = 90.0;
/// Tail-latency limit for a ladder step. Generous, so that below
/// capacity a step passes; past capacity the queue grows by the excess
/// rate every second, which fails the step within its duration.
const LIMIT_MS: f64 = 100.0;
/// Shares of `--seconds` for the reference step and for each ladder step;
/// a fixed half-second warm-up comes first.
const REFERENCE_SHARE: f64 = 0.45;
const STEP_SHARE: f64 = 0.06;
/// Seeded recall and byte-identity probes after the traffic.
const RECALL_PROBES: usize = 40;
const RECALL_FLOOR: f64 = 0.95;
const SCORE_PROBES: usize = 20;
/// The traced run replays requests in process in rounds of one untraced
/// and one traced chunk; every `SCAN_EVERY`-th request also scans a whole
/// shard.
const TRACED_ROUNDS: usize = 4;
const TRACED_CHUNK: usize = 500;
const SCAN_EVERY: usize = 25;

/// Clustered table: `CENTERS` random centres, each row a centre plus
/// small uniform noise. One fixed draw (`TABLE_SEED`): the IVF lists a
/// query probes, and so its cost, depend on the table, and a different
/// table per run moved the p90 by 15%; `--seed` drives the traffic.
fn table() -> NodeEmbeddings {
    let mut rng = StdRng::seed_from_u64(TABLE_SEED);
    let centers: Vec<f32> = (0..CENTERS * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut data = Vec::with_capacity(NODES * DIM);
    for _ in 0..NODES {
        let c = rng.gen_range(0..CENTERS);
        for j in 0..DIM {
            let noise: f32 = (0..3).map(|_| rng.gen_range(-0.1f32..0.1)).sum();
            data.push(centers[c * DIM + j] + noise);
        }
    }
    NodeEmbeddings::from_vec(DIM, data)
}

/// A `KnnIndex` handle shared between a shard engine and the traced run,
/// so the benchmark can call the very index the engine searches.
struct SharedIndex(Arc<IvfIndex>);

impl KnnIndex for SharedIndex {
    fn search_explained(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchInfo) {
        self.0.search_explained(query, k)
    }
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
    fn nprobe(&self) -> Option<usize> {
        KnnIndex::nprobe(self.0.as_ref())
    }
}

/// The running system plus what the checks and the traced run need.
struct Cluster {
    dir: PathBuf,
    shards: Vec<ShardHandle>,
    shard_engines: Vec<Arc<QueryEngine>>,
    shard_indexes: Vec<Arc<IvfIndex>>,
    shard_files: Vec<PathBuf>,
    router: Arc<Router>,
    front: ServerHandle,
    standalone: QueryEngine,
    dequantized: NodeEmbeddings,
}

impl Cluster {
    fn shutdown(self) {
        self.front.shutdown();
        drop(self.router);
        for s in self.shards {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn engine(store: Arc<EmbeddingStore>, index: Box<dyn KnnIndex>) -> QueryEngine {
    QueryEngine::new(
        store,
        index,
        EngineConfig { workers: 1, cache_capacity: 0, ..Default::default() },
    )
}

fn setup(dir: &Path, tracer: &mut Tracer) -> Result<Cluster, String> {
    let emb = table();
    let q = tracer
        .span("tgraph.quant.encode", 0, |_| {
            QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::Int8))
        })
        .map_err(|e| e.to_string())?;
    drop(emb);
    let manifest = tracer
        .span("cluster.plan", 0, |_| plan_shards_quant(&q, None, SHARDS, dir))
        .map_err(|e| e.to_string())?;
    let limits = RequestLimits::default();
    let mut shards = Vec::new();
    let mut replicas = Vec::new();
    let mut shard_engines = Vec::new();
    let mut shard_indexes = Vec::new();
    let mut shard_files = Vec::new();
    for (i, entry) in manifest.shards.iter().enumerate() {
        let snap = dir.join(&entry.snapshot);
        let store = Arc::new(
            EmbeddingStore::open_with(&snap, Some(&dir.join(&entry.names)), true)
                .map_err(|e| e.to_string())?,
        );
        let config = IvfConfig {
            num_clusters: Some(IVF_CLUSTERS),
            nprobe: IVF_NPROBE,
            kmeans_iters: IVF_ITERS,
            ..Default::default()
        };
        let ivf = Arc::new(
            tracer.span("serve.index.build", 0, |_| IvfIndex::build(Arc::clone(&store), config)),
        );
        let eng = Arc::new(engine(store, Box::new(SharedIndex(Arc::clone(&ivf)))));
        let server = ShardServer::bind(
            "127.0.0.1:0",
            Arc::clone(&eng),
            limits.clone(),
            None,
            ShardConfig { shard_id: i as u32, ..Default::default() },
        )
        .map_err(|e| e.to_string())?;
        replicas.push(vec![server.local_addr().map_err(|e| e.to_string())?]);
        shards.push(server.spawn().map_err(|e| e.to_string())?);
        shard_engines.push(eng);
        shard_indexes.push(ivf);
        shard_files.push(snap);
    }
    let router = Arc::new(
        Router::new(
            manifest,
            replicas,
            limits,
            RouterConfig {
                probe_interval: Duration::ZERO,
                cache_capacity: ROUTER_CACHE,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?,
    );
    let front = Server::bind_handler(
        "127.0.0.1:0",
        Arc::clone(&router) as Arc<dyn LineHandler>,
        ServerConfig { conn_workers: 2, ..Default::default() },
    )
    .and_then(Server::spawn)
    .map_err(|e| e.to_string())?;
    let dequantized = q.decode_all();
    let store = Arc::new(EmbeddingStore::from_quant(q, None).map_err(|e| e.to_string())?);
    let standalone = engine(Arc::clone(&store), Box::new(BruteForceIndex::new(store)));
    Ok(Cluster {
        dir: dir.to_path_buf(),
        shards,
        shard_engines,
        shard_indexes,
        shard_files,
        router,
        front,
        standalone,
        dequantized,
    })
}

fn knn_line(key: u32) -> String {
    format!(r#"{{"op":"knn","node":"{key}","k":{K}}}"#)
}

fn score_line(zipf: &Zipf, rng: &mut StdRng) -> String {
    let pairs: Vec<String> = (0..SCORE_PAIRS)
        .map(|_| format!(r#"["{}","{}"]"#, zipf.sample(rng), zipf.sample(rng)))
        .collect();
    format!(r#"{{"op":"score","pairs":[{}]}}"#, pairs.join(","))
}

/// The traffic mix: mostly `knn` by Zipf key (the primary requests),
/// some batched `score`.
fn request(zipf: &Zipf, rng: &mut StdRng) -> (String, bool) {
    if rng.gen_bool(SCORE_SHARE) {
        (score_line(zipf, rng), false)
    } else {
        (knn_line(zipf.sample(rng)), true)
    }
}

/// Counters from the `stats` op of a line handler.
fn stats_counts(handler: &dyn LineHandler) -> Result<[f64; 5], String> {
    let doc = handler.handle_line(r#"{"op":"stats"}"#);
    let get = |k: &str| doc.get(k).and_then(Json::as_f64).ok_or(format!("stats without {k}"));
    Ok([
        get("cache_hits")?,
        get("cache_misses")?,
        get("rejected")?,
        get("timeouts")?,
        get("overloads")?,
    ])
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let dir = scratch_dir(args).map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for i in 0..SETUPS {
        if let Some(c) = cluster.take() {
            Cluster::shutdown(c);
        }
        let sub = dir.join(format!("setup{i}"));
        std::fs::create_dir_all(&sub).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        cluster = Some(setup(&sub, tracer)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    let mut out = Outcome::default();
    out.record(
        "input",
        format!(
            r#"{{"nodes":{NODES},"dim":{DIM},"centers":{CENTERS},"format":"int8","shards":{SHARDS},"ivf_clusters":{IVF_CLUSTERS},"nprobe":{IVF_NPROBE},"router_cache":{ROUTER_CACHE},"zipf_exponent":{ZIPF_EXPONENT},"score_share":{SCORE_SHARE},"connections":2,"limit_ms":{LIMIT_MS}}}"#
        ),
    );
    let result = if args.trace {
        traced(args, &cluster, tracer, &mut out)
    } else {
        out.metric("setup_s", stats::median(&times));
        untraced(args, &cluster, &mut out)
    };
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| out)
}

fn untraced(args: &Args, cluster: &Cluster, out: &mut Outcome) -> Result<(), String> {
    let setup_rss = crate::start_measured_rss();
    let addr = cluster.front.addr();
    let conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let zipf = Zipf::new(NODES, ZIPF_EXPONENT, POPULARITY_SEED);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E7E);
    let total = args.seconds as f64;
    let step = |rate: f64, secs: f64, rng: &mut StdRng| {
        Step::new(rate, Duration::from_secs_f64(secs), rng, |r| request(&zipf, r))
    };

    // Warm-up (connections, page cache, router cache), then the
    // reference step, then the ladder.
    let warm = run_step(&conns, &step(REFERENCE_RATE, 0.5, &mut rng));
    let reference = run_step(&conns, &step(REFERENCE_RATE, REFERENCE_SHARE * total, &mut rng));
    let mut ladder: Vec<StepReport> = Vec::new();
    for &rate in &LADDER {
        let r = run_step(&conns, &step(rate, STEP_SHARE * total, &mut rng));
        let stop = !r.meets(LIMIT_MS);
        ladder.push(r);
        if stop {
            break;
        }
    }
    drop(conns);

    // The headline latencies are those of `knn`, the bulk of the traffic:
    // a `score` batch resolves its keys one shard round trip at a time, so
    // a percentile near the `score` share would sit on the boundary
    // between the two populations. All-request figures stay in the record.
    let mut sorted = reference.primary_ms.clone();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Err("no request succeeded at the reference rate".into());
    }
    let tail = stats::percentile(&sorted, TAIL_PCT);
    let p99 = stats::percentile(&sorted, 99.0);
    out.metric("p50_ms", stats::median(&sorted));
    out.metric("tail_ms", tail);
    let best = std::iter::once(&reference)
        .chain(&ladder)
        .filter(|r| r.meets(LIMIT_MS))
        .map(StepReport::goodput)
        .fold(None, |acc: Option<f64>, g| Some(acc.map_or(g, |a| a.max(g))));
    out.check("the reference rate meets the latency limit", best.is_some());
    out.metric("rate_per_s", best.unwrap_or_else(|| reference.goodput()));

    // Correctness probes, after the timed traffic.
    let mut probe_rng = StdRng::seed_from_u64(args.seed ^ 0x9A0BE);
    let keys: Vec<u32> = (0..RECALL_PROBES).map(|_| probe_rng.gen_range(0..NODES as u32)).collect();
    let lines: Vec<String> = keys.iter().map(|&k| knn_line(k)).collect();
    let answers = ehna_serve::query_lines(addr, &lines).map_err(|e| e.to_string())?;
    let mut hits = 0usize;
    let mut probe_failures = 0u64;
    for (&key, answer) in keys.iter().zip(&answers) {
        let doc = Json::parse(answer).map_err(|e| format!("bad knn answer: {e}"))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            probe_failures += 1;
            continue;
        }
        let got: Vec<usize> = doc
            .get("neighbors")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(|n| n.get("id").and_then(Json::as_usize)).collect())
            .unwrap_or_default();
        let truth = oracle_knn(&cluster.dequantized, key as usize);
        hits += got.iter().filter(|id| truth.contains(id)).count();
    }
    let recall = hits as f64 / (RECALL_PROBES * K) as f64;
    out.check(format!("knn recall@{K} {recall:.4} >= {RECALL_FLOOR}"), recall >= RECALL_FLOOR);
    let zipf_probe = Zipf::new(NODES, ZIPF_EXPONENT, POPULARITY_SEED);
    let score_lines: Vec<String> =
        (0..SCORE_PROBES).map(|_| score_line(&zipf_probe, &mut probe_rng)).collect();
    let routed = ehna_serve::query_lines(addr, &score_lines).map_err(|e| e.to_string())?;
    let limits = RequestLimits::default();
    let identical = score_lines
        .iter()
        .zip(&routed)
        .filter(|(line, got)| handle_line(&cluster.standalone, &limits, line).to_string() == **got)
        .count();
    out.check(
        format!("{identical}/{SCORE_PROBES} routed score answers byte-identical to standalone"),
        identical == SCORE_PROBES && routed.len() == SCORE_PROBES,
    );
    for line in answers.iter().chain(&routed) {
        if !line.starts_with(r#"{"ok":true"#) {
            probe_failures += 1;
        }
    }

    let [hits_c, misses_c, rejected, timeouts, overloads] = stats_counts(cluster.router.as_ref())?;
    let steps: Vec<&StepReport> =
        std::iter::once(&warm).chain(std::iter::once(&reference)).chain(&ladder).collect();
    let sent: usize = steps.iter().map(|r| r.sent).sum();
    let failed: usize = steps.iter().map(|r| r.failed).sum();
    out.check("every response has \"ok\":true", failed == 0 && probe_failures == 0);
    out.attempted = (sent + RECALL_PROBES + SCORE_PROBES) as u64;
    out.failed = failed as u64 + probe_failures;
    let ladder_json: Vec<String> = ladder.iter().map(|r| r.to_json(LIMIT_MS)).collect();
    out.record(
        "serve",
        format!(
            r#"{{"setup_peak_rss_mb":{setup_rss},"serve_max_qps":{},"serve_p50_ms":{},"serve_p90_ms":{tail},"serve_p99_ms":{p99},"knn_samples":{},"failed_share":{},"reference":{},"warmup":{},"ladder":[{}],"recall_at_10":{recall},"router":{{"cache_hits":{hits_c},"cache_misses":{misses_c},"cache_hit_share":{},"rejected":{rejected},"timeouts":{timeouts},"overloads":{overloads}}}}}"#,
            out.metrics["rate_per_s"],
            out.metrics["p50_ms"],
            sorted.len(),
            failed as f64 / sent.max(1) as f64,
            reference.to_json(LIMIT_MS),
            warm.to_json(LIMIT_MS),
            ladder_json.join(","),
            hits_c / (hits_c + misses_c).max(1.0)
        ),
    );
    Ok(())
}

/// Exact top-`K` ids for node `q` over the dequantized table, excluding
/// `q` itself (as `knn` by node does), ties broken by id.
fn oracle_knn(table: &NodeEmbeddings, q: usize) -> Vec<usize> {
    let query = table.get(NodeId(q as u32));
    let mut all: Vec<(f64, usize)> = (0..table.num_nodes())
        .filter(|&i| i != q)
        .map(|i| (sq_dist_f64(query, table.get(NodeId(i as u32))), i))
        .collect();
    all.select_nth_unstable_by(K, |a, b| a.partial_cmp(b).expect("finite distances"));
    all.truncate(K);
    all.into_iter().map(|(_, i)| i).collect()
}

/// The traced run: the same key sample replayed in process, once with
/// spans off and once with them on, each layer called on its own.
fn traced(
    args: &Args,
    cluster: &Cluster,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let totals = tracer.totals();
    let per_setup_s =
        |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / t.calls as f64 / 1e9);
    out.metric("tgraph.quant.encode_s", per_setup_s("tgraph.quant.encode"));
    out.metric("cluster.plan_s", per_setup_s("cluster.plan"));
    out.metric("serve.index.build_s", per_setup_s("serve.index.build"));
    let setup_spans = tracer.spans().len();

    let clients: Vec<MuxClient> = cluster
        .shards
        .iter()
        .map(|s| MuxClient::connect(s.addr(), Duration::from_secs(2), Duration::from_secs(5)))
        .collect::<std::io::Result<_>>()
        .map_err(|e| e.to_string())?;
    let scans: Vec<QuantizedEmbeddings> = cluster
        .shard_files
        .iter()
        .map(|p| QuantizedEmbeddings::open_path(p, true))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let zipf = Zipf::new(NODES, ZIPF_EXPONENT, POPULARITY_SEED);
    let limits = RequestLimits::default();
    let mut candidates = 0usize;
    let mut searches = 0usize;
    let mut replay = |t: &mut Tracer, seed: u64, base: usize| -> Result<f64, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        for i in base..base + TRACED_CHUNK {
            let req = i as u64;
            let key = zipf.sample(&mut rng);
            let line = knn_line(key);
            let s = key as usize % SHARDS as usize;
            let eng = &cluster.shard_engines[s];
            t.span("serve.request", req, |t| -> Result<(), String> {
                let routed =
                    t.span("cluster.router.handle", req, |_| cluster.router.handle_line(&line));
                let local = eng.store().resolve(&key.to_string()).map_err(|e| e.to_string())?;
                let row = eng.store().row(local).map_err(|e| e.to_string())?.into_owned();
                let request = ehna_cluster::Request::Knn {
                    k: K as u32 + 1,
                    explain: false,
                    vector: row.clone(),
                };
                let shard_reply = t.span("cluster.proto.roundtrip", req, |_| {
                    clients[s].call(&request, Duration::from_secs(5))
                });
                let direct =
                    t.span("serve.server.handle", req, |_| handle_line(eng, &limits, &line));
                let knn = t.span("serve.engine.knn", req, |_| eng.knn_node(local, K, false));
                let (_, info) = t.span("serve.index.search", req, |_| {
                    cluster.shard_indexes[s].search_explained(&row, K)
                });
                candidates += info.scanned;
                searches += 1;
                if i % SCAN_EVERY == 0 {
                    let q = &scans[s];
                    t.span("tgraph.quant.scan", req, |_| {
                        let scorer = q.scorer(&row);
                        let nearest = (0..q.num_nodes())
                            .map(|r| scorer.dist(r))
                            .fold(f64::INFINITY, f64::min);
                        std::hint::black_box(nearest)
                    });
                }
                let ok = routed.get("ok").and_then(Json::as_bool) == Some(true)
                    && direct.get("ok").and_then(Json::as_bool) == Some(true)
                    && knn.is_ok()
                    && shard_reply.is_ok();
                if ok {
                    Ok(())
                } else {
                    Err(format!("traced request {i} for node {key} failed"))
                }
            })?;
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    // Untraced replays warm the router cache first; then untraced and
    // traced chunks alternate, each with its own keys, so both see the
    // same cache and host conditions on average.
    let before = stats_counts(cluster.router.as_ref())?;
    for r in 0..TRACED_ROUNDS {
        replay(&mut Tracer::new(false), args.seed ^ (0xA0 + r as u64), 0)?;
    }
    let (mut off, mut on, mut hits, mut misses) = (0.0, 0.0, 0.0, 0.0);
    for r in 0..TRACED_ROUNDS {
        off += replay(&mut Tracer::new(false), args.seed ^ (0xB0 + r as u64), 0)?;
        let mid = stats_counts(cluster.router.as_ref())?;
        on += replay(tracer, args.seed ^ (0xC0 + r as u64), r * TRACED_CHUNK)?;
        let after = stats_counts(cluster.router.as_ref())?;
        hits += after[0] - mid[0];
        misses += after[1] - mid[1];
    }
    let after = stats_counts(cluster.router.as_ref())?;

    let totals = tracer.totals();
    let mean_us =
        |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / t.calls as f64 / 1e3);
    for (metric, span) in [
        ("serve.server.handle_us", "serve.server.handle"),
        ("serve.engine.knn_us", "serve.engine.knn"),
        ("serve.index.search_us", "serve.index.search"),
        ("tgraph.quant.scan_us", "tgraph.quant.scan"),
        ("cluster.router.handle_us", "cluster.router.handle"),
        ("cluster.proto.roundtrip_us", "cluster.proto.roundtrip"),
    ] {
        out.metric(metric, mean_us(span));
    }
    out.metric("serve.index.candidates_per_query", candidates as f64 / searches.max(1) as f64);
    out.metric("cluster.router.cache_hit_share", hits / (hits + misses).max(1.0));
    out.metric("serve.rejected", after[2] - before[2]);
    out.metric("serve.timeouts", after[3] - before[3]);
    out.metric("serve.overloads", after[4] - before[4]);
    out.metric("trace.overhead_share", on / off - 1.0);
    out.attempted = (3 * TRACED_ROUNDS * TRACED_CHUNK) as u64;
    out.record(
        "trace",
        format!(
            r#"{{"untraced_replay_s":{off},"traced_replay_s":{on},"traced_requests":{},"setup_spans":{setup_spans}}}"#,
            TRACED_ROUNDS * TRACED_CHUNK
        ),
    );
    Ok(())
}
