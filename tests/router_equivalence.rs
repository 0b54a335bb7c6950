//! The cluster's core guarantee, checked end-to-end over real sockets:
//! a router fronting N shards answers the JSON line protocol
//! **byte-identically** to a standalone server over the unsplit table —
//! same neighbor ids, same ordering (ties broken by global node id),
//! same error strings, same `cached` flags — for N ∈ {1, 2, 4},
//! including `batch` envelopes, with the answer cache both enabled and
//! disabled, and down to degenerate single-node and empty tables. A
//! second battery repeats the check with tight request limits on both
//! sides, covering every limit and malformed-field rejection.
//!
//! CI runs this suite as the router gate (scripts/ci.sh).

use ehna_cluster::{plan_shards_quant, Router, RouterConfig, ShardConfig, ShardServer};
use ehna_serve::{
    query_lines, BruteForceIndex, EmbeddingStore, EngineConfig, EngineHandler, IvfConfig, IvfIndex,
    Json, KnnIndex, QueryEngine, RequestLimits, Server, ServerConfig,
};
use ehna_tgraph::{NameMap, NodeEmbeddings, QuantFormat, QuantSpec, QuantizedEmbeddings};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A tie-heavy table: values cycle through 5 levels so many rows are
/// equidistant and the (dist, id) tie-break actually decides orderings.
fn table(n: usize, dim: usize) -> NodeEmbeddings {
    let data: Vec<f32> = (0..n * dim).map(|i| ((i * 7) % 5) as f32).collect();
    NodeEmbeddings::from_vec(dim, data)
}

/// The lossless EHNQ `f32` encoding of `emb`, as `ehna train` writes it.
fn f32(emb: &NodeEmbeddings) -> QuantizedEmbeddings {
    QuantizedEmbeddings::encode(emb, &QuantSpec::new(QuantFormat::F32)).unwrap()
}

fn names(n: usize) -> NameMap {
    let mut map = NameMap::new();
    for i in 0..n {
        map.intern(&format!("node{i}"));
    }
    map
}

/// Write the unsplit snapshot + names under `dir`, returning the paths.
fn write_full(dir: &Path, emb: &NodeEmbeddings, n: usize) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let snap = dir.join("full.bin");
    f32(emb).save_path(&snap).unwrap();
    let names_path = dir.join("full.names");
    let lines: Vec<String> = (0..n).map(|i| format!("node{i}")).collect();
    std::fs::write(&names_path, lines.join("\n") + "\n").unwrap();
    (snap, names_path)
}

fn engine_for(snap: &Path, names: Option<&Path>, cache_capacity: usize) -> Arc<QueryEngine> {
    let store = Arc::new(
        EmbeddingStore::open(snap.to_str().unwrap(), names.map(|p| p.to_str().unwrap())).unwrap(),
    );
    let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
    // The standalone oracle's cache capacity must mirror the router's: a
    // hit flips `"cached":true` in the response, so the *hit patterns*
    // have to line up for byte-level comparison — which is itself part
    // of the guarantee under test.
    Arc::new(QueryEngine::new(store, index, EngineConfig { workers: 1, cache_capacity }))
}

/// Everything a running cluster needs torn down at the end.
struct LiveCluster {
    router: ehna_serve::ServerHandle,
    shards: Vec<ehna_cluster::ShardHandle>,
}

impl LiveCluster {
    fn shutdown(self) {
        self.router.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }
}

/// Shard the table into `dir`, serve every shard over EHNP, and front
/// them with a router speaking JSON on an ephemeral port.
fn start_cluster(
    dir: &Path,
    emb: &NodeEmbeddings,
    name_map: Option<&NameMap>,
    n_shards: u32,
    cache_capacity: usize,
) -> LiveCluster {
    start_cluster_with(dir, emb, name_map, n_shards, cache_capacity, RequestLimits::default())
}

/// [`start_cluster`] with `limits` on the router and on every shard.
fn start_cluster_with(
    dir: &Path,
    emb: &NodeEmbeddings,
    name_map: Option<&NameMap>,
    n_shards: u32,
    cache_capacity: usize,
    limits: RequestLimits,
) -> LiveCluster {
    std::fs::create_dir_all(dir).unwrap();
    let manifest = plan_shards_quant(&f32(emb), name_map, n_shards, dir).unwrap();
    let mut shard_handles = Vec::new();
    let mut replica_addrs: Vec<Vec<SocketAddr>> = Vec::new();
    for (i, entry) in manifest.shards.iter().enumerate() {
        // Shard engines never cache: the router sends vector queries,
        // which the engine's hot-node cache does not cover. Caching
        // lives on the router, keyed by the snapshot-version vector.
        let engine = engine_for(&dir.join(&entry.snapshot), Some(&dir.join(&entry.names)), 0);
        let shard = ShardServer::bind(
            "127.0.0.1:0",
            engine,
            limits.clone(),
            None,
            ShardConfig { shard_id: i as u32, ..Default::default() },
        )
        .unwrap();
        replica_addrs.push(vec![shard.local_addr().unwrap()]);
        shard_handles.push(shard.spawn().unwrap());
    }
    let router = Router::new(
        manifest,
        replica_addrs,
        limits,
        RouterConfig { probe_interval: Duration::ZERO, cache_capacity, ..Default::default() },
    )
    .unwrap();
    let server =
        Server::bind_handler("127.0.0.1:0", Arc::new(router) as _, ServerConfig::default())
            .unwrap();
    LiveCluster { router: server.spawn().unwrap(), shards: shard_handles }
}

/// The request battery: happy paths, tie-heavy top-k, numeric and named
/// keys, scores, batches, and the full error surface. Every response
/// must match byte-for-byte.
fn battery(n: usize) -> Vec<String> {
    vec![
        r#"{"op":"ping"}"#.to_string(),
        r#"{"op":"knn","node":"node3","k":1}"#.to_string(),
        r#"{"op":"knn","node":"node3","k":5}"#.to_string(),
        format!(r#"{{"op":"knn","node":"node0","k":{}}}"#, n - 1),
        r#"{"op":"knn","node":"7","k":4}"#.to_string(),
        // Aliased spelling of the line above: a numeric key resolving to
        // the same node must share its cache entry on both sides.
        r#"{"op":"knn","node":7,"k":4}"#.to_string(),
        // Non-canonical decimal spellings of the same id: both sides
        // must *reject* these identically. Accepting them (as
        // `parse::<u32>` would) aliases one row under many keys and
        // splits the answer cache, so canonical-form rejection is part
        // of the equivalence contract.
        r#"{"op":"knn","node":"007","k":4}"#.to_string(),
        r#"{"op":"knn","node":"+7","k":4}"#.to_string(),
        r#"{"op":"knn","node":" 7","k":4}"#.to_string(),
        r#"{"op":"score","pairs":[["007","3"],["+1","2"]]}"#.to_string(),
        r#"{"op":"knn","node":"node11"}"#.to_string(),
        r#"{"op":"knn","vector":[1,0,2,4,0,3,1,2],"k":6}"#.to_string(),
        // Exact repeat of an earlier line: with caches on, both sides
        // must flip to `"cached":true` in lockstep.
        r#"{"op":"knn","node":"node3","k":5}"#.to_string(),
        r#"{"op":"knn","vector":[1,0,2,4,0,3,1,2],"k":6}"#.to_string(),
        r#"{"op":"score","pairs":[["node1","node2"],["3","node4"],["node5","node5"]]}"#
            .to_string(),
        r#"{"op":"batch","requests":[{"op":"knn","node":"node2","k":3},{"op":"ping"},{"op":"score","pairs":[["0","1"]]}]}"#
            .to_string(),
        r#"{"op":"batch","requests":[{"op":"reload"},{"op":"knn","node":"ghost","k":2},{"op":"knn","node":"node1","k":2}]}"#
            .to_string(),
        // Error surface: identical strings required — including
        // shard-side validation (the wrong-dimension vector), which must
        // come back verbatim, not prefixed with a shard id.
        r#"{"op":"knn","vector":[1,2],"k":3}"#.to_string(),
        r#"{"op":"knn","node":"ghost","k":3}"#.to_string(),
        r#"{"op":"knn","node":"node1","k":0}"#.to_string(),
        r#"{"op":"knn","node":"node1","k":999999}"#.to_string(),
        r#"{"op":"knn","k":3}"#.to_string(),
        r#"{"op":"score","pairs":[["node1","ghost"]]}"#.to_string(),
        r#"{"op":"frobnicate"}"#.to_string(),
        r#"{"nop":true}"#.to_string(),
        "not json at all".to_string(),
        r#"{"op":"batch","requests":"nope"}"#.to_string(),
    ]
}

#[test]
fn sharded_answers_are_byte_identical_to_standalone() {
    const N: usize = 60;
    const DIM: usize = 8;
    let dir = std::env::temp_dir().join("ehna_router_equivalence");
    let _ = std::fs::remove_dir_all(&dir);
    let emb = table(N, DIM);
    let name_map = names(N);
    let (snap, names_path) = write_full(&dir, &emb, N);
    let requests = battery(N);

    // Once with the answer cache off and once with it on: the battery
    // repeats lines and aliases keys, so the cache-on run checks that
    // hit patterns (the `cached` flag) line up too, not just answers.
    for cache in [0usize, 256] {
        // Oracle: a standalone brute-force server over the unsplit table.
        let standalone = Server::bind_with(
            "127.0.0.1:0",
            engine_for(&snap, Some(&names_path), cache),
            ServerConfig::default(),
        )
        .unwrap();
        let standalone = standalone.spawn().unwrap();
        let expected = query_lines(standalone.addr(), &requests).unwrap();

        for n_shards in [1u32, 2, 4] {
            let shard_dir = dir.join(format!("shards_{n_shards}_c{cache}"));
            let cluster = start_cluster(&shard_dir, &emb, Some(&name_map), n_shards, cache);
            let got = query_lines(cluster.router.addr(), &requests).unwrap();
            for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    want, have,
                    "response {i} diverged at {n_shards} shards (cache {cache})\nrequest: {}",
                    requests[i]
                );
            }
            assert_eq!(expected.len(), got.len());
            cluster.shutdown();
        }
        standalone.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Limits tight enough that every limit branch fires on a 60-node table,
/// and that the default `k` (10) is clamped by `max_k` rather than by
/// the table size.
const TIGHT: RequestLimits = RequestLimits { max_k: 3, max_pairs: 2, max_batch: 2 };

/// The validation surface under [`TIGHT`]: limit rejections, the
/// clamped default `k`, and every malformed-field branch of `knn`,
/// `score` and `batch`, inside and outside batch envelopes.
fn tight_battery() -> Vec<String> {
    [
        // `k` at, above and defaulted under `max_k`.
        r#"{"op":"knn","node":"node1","k":3}"#,
        r#"{"op":"knn","node":"node1","k":4}"#,
        r#"{"op":"knn","node":"node1"}"#,
        r#"{"op":"knn","vector":[1,0,2,4,0,3,1,2]}"#,
        // Pair and batch counts at and above their limits.
        r#"{"op":"score","pairs":[["node1","node2"],["3","4"]]}"#,
        r#"{"op":"score","pairs":[["node1","node2"],["3","4"],["5","6"]]}"#,
        r#"{"op":"batch","requests":[{"op":"ping"},{"op":"knn","node":"node2","k":2}]}"#,
        r#"{"op":"batch","requests":[{"op":"ping"},{"op":"ping"},{"op":"ping"}]}"#,
        // Malformed `knn` fields.
        r#"{"op":"knn","vector":"1,0,2","k":2}"#,
        r#"{"op":"knn","vector":[1,"x",2,4,0,3,1,2],"k":2}"#,
        r#"{"op":"knn","node":"node1","k":1.5}"#,
        r#"{"op":"knn","node":"node1","k":"2"}"#,
        r#"{"op":"knn","node":"node1","k":-1}"#,
        r#"{"op":"knn","node":"node1","vector":[1,0,2,4,0,3,1,2],"k":2}"#,
        r#"{"op":"knn","node":true,"k":2}"#,
        // Malformed `score` fields.
        r#"{"op":"score","pairs":"node1,node2"}"#,
        r#"{"op":"score","pairs":[["node1"]]}"#,
        r#"{"op":"score","pairs":[["node1","node2","node3"]]}"#,
        r#"{"op":"score","pairs":[["node1",true]]}"#,
        // Malformed and refused batch members; limit rejections inside
        // a batch are reported in place.
        r#"{"op":"batch","requests":[{"op":"batch","requests":[]},{"op":"ping"}]}"#,
        r#"{"op":"batch","requests":[{"node":"node1","k":2},7]}"#,
        r#"{"op":"batch","requests":[{"op":"knn","node":"node1","k":4},{"op":"score","pairs":[[1,2],[3,4],[5,6]]}]}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn tight_limits_reject_identically() {
    const N: usize = 60;
    const DIM: usize = 8;
    let dir = std::env::temp_dir().join("ehna_router_equivalence_tight");
    let _ = std::fs::remove_dir_all(&dir);
    let emb = table(N, DIM);
    let name_map = names(N);
    let (snap, names_path) = write_full(&dir, &emb, N);
    let mut requests = tight_battery();
    requests.push(r#"{"op":"stats"}"#.to_string());

    let handler = EngineHandler::new(engine_for(&snap, Some(&names_path), 0), TIGHT, None);
    let standalone =
        Server::bind_handler("127.0.0.1:0", Arc::new(handler), ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
    let mut expected = query_lines(standalone.addr(), &requests).unwrap();
    standalone.shutdown();
    // The stats documents differ by role; the counters the request
    // layer keeps must not.
    let want_stats = Json::parse(&expected.pop().unwrap()).unwrap();

    for n_shards in [1u32, 3] {
        let shard_dir = dir.join(format!("shards_{n_shards}"));
        let cluster = start_cluster_with(&shard_dir, &emb, Some(&name_map), n_shards, 0, TIGHT);
        let mut got = query_lines(cluster.router.addr(), &requests).unwrap();
        let got_stats = Json::parse(&got.pop().unwrap()).unwrap();
        for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(
                want, have,
                "response {i} diverged at {n_shards} shards\nrequest: {}",
                requests[i]
            );
        }
        assert_eq!(expected.len(), got.len());
        for counter in ["rejected", "cache_hits", "cache_misses", "ops"] {
            assert_eq!(
                got_stats.get(counter).map(Json::to_string),
                want_stats.get(counter).map(Json::to_string),
                "{counter} diverged at {n_shards} shards"
            );
        }
        cluster.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_answers_match_on_an_anonymous_table() {
    // No name map: every key is a decimal global id, exercising the
    // owner-arithmetic GetRow path rather than scatter-resolve hits.
    const N: usize = 33;
    const DIM: usize = 4;
    let dir = std::env::temp_dir().join("ehna_router_equivalence_anon");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let emb = table(N, DIM);
    let snap = dir.join("full.bin");
    f32(&emb).save_path(&snap).unwrap();

    let standalone =
        Server::bind_with("127.0.0.1:0", engine_for(&snap, None, 0), ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();

    let requests = vec![
        r#"{"op":"knn","node":"0","k":3}"#.to_string(),
        r#"{"op":"knn","node":"32","k":7}"#.to_string(),
        r#"{"op":"knn","node":"33","k":2}"#.to_string(),
        // Non-canonical decimals on the anonymous path: this is where a
        // lax `parse::<u32>` fallback would silently accept them, so
        // the identical-rejection check matters most here.
        r#"{"op":"knn","node":"007","k":3}"#.to_string(),
        r#"{"op":"knn","node":"+3","k":3}"#.to_string(),
        r#"{"op":"score","pairs":[["0","32"],["5","5"]]}"#.to_string(),
        r#"{"op":"batch","requests":[{"op":"knn","node":"16","k":4}]}"#.to_string(),
    ];
    let expected = query_lines(standalone.addr(), &requests).unwrap();

    for n_shards in [2u32, 4] {
        let shard_dir = dir.join(format!("shards_{n_shards}"));
        let cluster = start_cluster(&shard_dir, &emb, None, n_shards, 0);
        let got = query_lines(cluster.router.addr(), &requests).unwrap();
        assert_eq!(expected, got, "anonymous-table divergence at {n_shards} shards");
        cluster.shutdown();
    }
    standalone.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degenerate_tables_match_standalone() {
    // The hard edges: an empty table (every op must reject identically,
    // *before* default-k is derived) and a single-node table (whose only
    // node-keyed answer is an empty neighbor list after self-exclusion).
    // Sharding either table leaves most shards empty, so this also pins
    // the router's merge over zero-row shards.
    const DIM: usize = 3;
    let dir = std::env::temp_dir().join("ehna_router_equivalence_degenerate");
    let _ = std::fs::remove_dir_all(&dir);
    for n in [0usize, 1] {
        let sub = dir.join(format!("n{n}"));
        std::fs::create_dir_all(&sub).unwrap();
        let emb = table(n, DIM);
        let snap = sub.join("full.bin");
        f32(&emb).save_path(&snap).unwrap();
        let standalone =
            Server::bind_with("127.0.0.1:0", engine_for(&snap, None, 256), ServerConfig::default())
                .unwrap()
                .spawn()
                .unwrap();
        let requests = vec![
            r#"{"op":"knn","node":"0","k":1}"#.to_string(),
            // Default k: on one node it clamps to 1 (not a rejection);
            // on zero nodes the empty-table rejection fires first.
            r#"{"op":"knn","node":"0"}"#.to_string(),
            r#"{"op":"knn","node":"0"}"#.to_string(),
            r#"{"op":"knn","vector":[1,0,2]}"#.to_string(),
            r#"{"op":"knn","node":"1","k":1}"#.to_string(),
            r#"{"op":"score","pairs":[["0","0"]]}"#.to_string(),
            r#"{"op":"batch","requests":[{"op":"knn","node":"0"},{"op":"ping"}]}"#.to_string(),
        ];
        let expected = query_lines(standalone.addr(), &requests).unwrap();
        for n_shards in [1u32, 2, 4] {
            let shard_dir = sub.join(format!("shards_{n_shards}"));
            let cluster = start_cluster(&shard_dir, &emb, None, n_shards, 256);
            let got = query_lines(cluster.router.addr(), &requests).unwrap();
            for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    want, have,
                    "n={n} response {i} diverged at {n_shards} shards\nrequest: {}",
                    requests[i]
                );
            }
            cluster.shutdown();
        }
        standalone.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quantized_shards_are_byte_identical_to_quantized_standalone() {
    // The quantized analogue of the headline gate: shard snapshots made
    // by `plan_shards_quant` slice code rows verbatim and share the
    // source's codebooks/scales, so a router over quantized shards must
    // answer byte-identically to a standalone server over the unsplit
    // quantized table — per format, including PQ's asymmetric-distance
    // path and the full error surface (non-canonical keys included).
    const N: usize = 48;
    const DIM: usize = 8;
    let dir = std::env::temp_dir().join("ehna_router_equivalence_quant");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let emb = table(N, DIM);
    let name_map = names(N);
    let requests = battery(N);

    for format in [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8, QuantFormat::Pq] {
        let sub = dir.join(format.label());
        std::fs::create_dir_all(&sub).unwrap();
        let q = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(format)).unwrap();
        let snap = sub.join("full.ehnq");
        q.save_path(&snap).unwrap();
        let names_path = sub.join("full.names");
        let lines: Vec<String> = (0..N).map(|i| format!("node{i}")).collect();
        std::fs::write(&names_path, lines.join("\n") + "\n").unwrap();

        // Oracle: standalone brute force over the unsplit quantized table.
        let standalone = Server::bind_with(
            "127.0.0.1:0",
            engine_for(&snap, Some(&names_path), 0),
            ServerConfig::default(),
        )
        .unwrap()
        .spawn()
        .unwrap();
        let expected = query_lines(standalone.addr(), &requests).unwrap();
        standalone.shutdown();

        for n_shards in [2u32, 3] {
            let shard_dir = sub.join(format!("shards_{n_shards}"));
            std::fs::create_dir_all(&shard_dir).unwrap();
            let manifest = plan_shards_quant(&q, Some(&name_map), n_shards, &shard_dir).unwrap();
            let mut shard_handles = Vec::new();
            let mut replicas = Vec::new();
            for (i, entry) in manifest.shards.iter().enumerate() {
                let engine = engine_for(
                    &shard_dir.join(&entry.snapshot),
                    Some(&shard_dir.join(&entry.names)),
                    0,
                );
                let shard = ShardServer::bind(
                    "127.0.0.1:0",
                    engine,
                    RequestLimits::default(),
                    None,
                    ShardConfig { shard_id: i as u32, ..Default::default() },
                )
                .unwrap();
                replicas.push(vec![shard.local_addr().unwrap()]);
                shard_handles.push(shard.spawn().unwrap());
            }
            // Cache off on both sides: quantized caching behavior is
            // already covered by the dense battery's cache-on run.
            let router = Router::new(
                manifest,
                replicas,
                RequestLimits::default(),
                RouterConfig {
                    probe_interval: Duration::ZERO,
                    cache_capacity: 0,
                    ..Default::default()
                },
            )
            .unwrap();
            let handle =
                Server::bind_handler("127.0.0.1:0", Arc::new(router) as _, ServerConfig::default())
                    .unwrap()
                    .spawn()
                    .unwrap();
            let got = query_lines(handle.addr(), &requests).unwrap();
            for (i, (want, have)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    want,
                    have,
                    "{} response {i} diverged at {n_shards} shards\nrequest: {}",
                    format.label(),
                    requests[i]
                );
            }
            assert_eq!(expected.len(), got.len());
            handle.shutdown();
            for s in shard_handles {
                s.shutdown();
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_local_ivf_recall_stays_above_095() {
    // Shards running an approximate IVF index cannot be byte-identical
    // to brute force, so the gate is recall@k against the brute-force
    // oracle, plus structural checks: `explain` must surface each
    // shard's nprobe, and merged answers must stay sorted by
    // (dist, id).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    const N: usize = 400;
    const DIM: usize = 8;
    const K: usize = 10;
    let dir = std::env::temp_dir().join("ehna_router_equivalence_ivf");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A clustered table: 8 well-separated centers with small jitter, so
    // IVF's coarse quantizer has real structure to exploit.
    let mut rng = StdRng::seed_from_u64(0xEF7A);
    let mut data = Vec::with_capacity(N * DIM);
    for i in 0..N {
        let c = i % 8;
        for d in 0..DIM {
            let center = if d == c { 10.0 } else { 0.0 };
            data.push(center + rng.gen_range(-0.5..0.5f32));
        }
    }
    let emb = NodeEmbeddings::from_vec(DIM, data);
    let snap = dir.join("full.bin");
    f32(&emb).save_path(&snap).unwrap();

    // Brute-force oracle over the unsplit table.
    let standalone =
        Server::bind_with("127.0.0.1:0", engine_for(&snap, None, 0), ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
    let queries: Vec<String> = (0..40)
        .map(|q| format!(r#"{{"op":"knn","node":"{}","k":{K},"explain":true}}"#, q * 9))
        .collect();
    let expected = query_lines(standalone.addr(), &queries).unwrap();
    standalone.shutdown();

    let manifest = plan_shards_quant(&f32(&emb), None, 2, &dir).unwrap();
    let mut shard_handles = Vec::new();
    let mut replicas = Vec::new();
    for (i, entry) in manifest.shards.iter().enumerate() {
        let store = Arc::new(
            EmbeddingStore::open(
                dir.join(&entry.snapshot).to_str().unwrap(),
                Some(dir.join(&entry.names).to_str().unwrap()),
            )
            .unwrap(),
        );
        let index: Box<dyn KnnIndex> = Box::new(IvfIndex::build(
            Arc::clone(&store),
            IvfConfig { num_clusters: Some(8), nprobe: 4, ..Default::default() },
        ));
        let engine = Arc::new(QueryEngine::new(
            store,
            index,
            EngineConfig { workers: 1, cache_capacity: 0 },
        ));
        let shard = ShardServer::bind(
            "127.0.0.1:0",
            engine,
            RequestLimits::default(),
            None,
            ShardConfig { shard_id: i as u32, ..Default::default() },
        )
        .unwrap();
        replicas.push(vec![shard.local_addr().unwrap()]);
        shard_handles.push(shard.spawn().unwrap());
    }
    let router = Router::new(
        manifest,
        replicas,
        RequestLimits::default(),
        RouterConfig { probe_interval: Duration::ZERO, ..Default::default() },
    )
    .unwrap();
    let handle =
        Server::bind_handler("127.0.0.1:0", Arc::new(router) as _, ServerConfig::default())
            .unwrap()
            .spawn()
            .unwrap();
    let got = query_lines(handle.addr(), &queries).unwrap();

    let ids = |resp: &Json| -> Vec<u32> {
        resp.get("neighbors")
            .and_then(Json::as_arr)
            .expect("neighbors")
            .iter()
            .map(|n| n.get("id").and_then(Json::as_usize).unwrap() as u32)
            .collect()
    };
    let mut hit = 0usize;
    let mut total = 0usize;
    for (want_line, got_line) in expected.iter().zip(&got) {
        let want = Json::parse(want_line).unwrap();
        let have = Json::parse(got_line).unwrap();
        assert_eq!(have.get("ok"), Some(&Json::Bool(true)), "{got_line}");
        let want_ids = ids(&want);
        let got_ids = ids(&have);
        total += want_ids.len();
        hit += got_ids.iter().filter(|id| want_ids.contains(id)).count();
        // Merged approximate answers keep the exact contract's shape:
        // ascending (dist, id), and every shard reports a real nprobe.
        let dists: Vec<f64> = have
            .get("neighbors")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|n| n.get("dist").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]), "unsorted: {got_line}");
        for shard in have
            .get("explain")
            .and_then(|e| e.get("shards"))
            .and_then(Json::as_arr)
            .expect("explain.shards")
        {
            assert_eq!(
                shard.get("nprobe").and_then(Json::as_usize),
                Some(4),
                "shard nprobe missing: {got_line}"
            );
        }
    }
    let recall = hit as f64 / total as f64;
    assert!(recall >= 0.95, "shard-IVF recall@{K} = {recall:.3} < 0.95 ({hit}/{total})");

    handle.shutdown();
    for s in shard_handles {
        s.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
