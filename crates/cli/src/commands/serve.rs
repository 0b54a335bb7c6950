//! `ehna serve` — serve an embedding snapshot over line-delimited JSON
//! on TCP.

use crate::commands::io_err;
use crate::flags::Flags;
use crate::CliError;
use ehna_cluster::{ShardConfig, ShardServer};
use ehna_serve::{
    BruteForceIndex, EmbeddingStore, EngineConfig, EngineHandler, IvfConfig, IvfIndex, KnnIndex,
    QueryEngine, Reloader, RequestLimits, Server, ServerConfig,
};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

const HELP: &str = "ehna serve — serve an embedding snapshot over TCP

usage: ehna serve SNAPSHOT [--names FILE] [--addr HOST:PORT] [--mmap]
                  [--index ivf|brute] [--clusters N] [--nprobe N]
                  [--workers N] [--batch N] [--cache N]
                  [--role standalone|shard] [--shard-id N]
                  [--ehnp-addr HOST:PORT] [--frame-deadline-ms N]
                  [--conn-workers N] [--max-conns N]
                  [--read-timeout-ms N] [--write-timeout-ms N]
                  [--max-line-bytes N] [--max-k N] [--max-pairs N]
                  [--drain-ms N]

Protocol: one JSON request per line, one JSON response per line:
  {\"op\":\"knn\",\"node\":\"alice\",\"k\":10}
  {\"op\":\"knn\",\"vector\":[0.1,0.2],\"k\":5,\"explain\":true}
  {\"op\":\"score\",\"pairs\":[[\"alice\",\"bob\"]]}
  {\"op\":\"stats\"}
  {\"op\":\"reload\"}
Distances are squared Euclidean (Eq. 5): lower = stronger link.
`reload` re-reads SNAPSHOT (and --names) from disk, rebuilds the index
with the same flags, and hot-swaps it in without dropping in-flight
queries; `stats` reports the serving snapshot_version. Pair with
`ehna stream --reload` for live refresh.

flags:
  --names FILE    name map saved alongside the snapshot (one name per
                  line, line i names node i); queries may then use names
  --addr ADDR     listen address (default 127.0.0.1:7878; port 0 picks
                  an ephemeral port)
  --mmap          memory-map EHNQ artifacts (see `ehna quantize`)
                  instead of reading them onto the heap: open and
                  reload time become O(1) in table size and a reload
                  never doubles resident memory; ignored for legacy
                  dense snapshots (and on non-unix platforms)
  --index KIND    ivf (cluster-pruned, default for >= 4096 nodes) or
                  brute (exact, default below that)
  --clusters N    IVF cluster count (default sqrt(n))
  --nprobe N      IVF clusters probed per query (default 8)
  --workers N     query worker threads (default 2)
  --batch N       max requests drained per worker wakeup (default 32)
  --cache N       hot-node cache entries (default 1024, 0 disables)

cluster role (see `ehna shard` / `ehna router`):
  --role KIND           standalone (default) or shard; a shard also
                        serves EHNP v1 — the binary router protocol —
                        on --ehnp-addr, sharing the JSON port's engine,
                        stats, and hot-swapped snapshots
  --shard-id N          this shard's id in the cluster (default 0;
                        reported by `stats` on both ports)
  --ehnp-addr ADDR      EHNP listen address (default 127.0.0.1:7879;
                        port 0 picks an ephemeral port)
  --frame-deadline-ms N drop a router connection stalled mid-frame this
                        long (default 10000; idle keep-alive is fine)

hardening (see README, 'Operating ehna-serve'):
  --conn-workers N      connection-handler threads (default 4)
  --max-conns N         concurrent-connection cap; arrivals beyond it
                        get {\"ok\":false,\"error\":\"overloaded\"}
                        (default 64)
  --read-timeout-ms N   drop a connection idle/stalled on read this
                        long (default 30000)
  --write-timeout-ms N  drop a client not draining its response this
                        long (default 10000)
  --max-line-bytes N    longest accepted request line (default 1048576)
  --max-k N             largest k a knn request may ask (default 1024)
  --max-pairs N         most pairs one score request may send
                        (default 4096)
  --max-batch N         most sub-requests one batch envelope may carry
                        (default 256)
  --drain-ms N          shutdown grace for in-flight requests
                        (default 5000)";

/// A bound-but-not-yet-serving `ehna serve` process: the JSON server,
/// plus the EHNP endpoint when `--role shard` was given.
pub struct PreparedServe {
    /// The JSON line-protocol server (always present).
    pub server: Server,
    /// The EHNP v1 shard endpoint (`--role shard` only).
    pub shard: Option<ShardServer>,
}

impl std::fmt::Debug for PreparedServe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedServe").field("shard", &self.shard).finish_non_exhaustive()
    }
}

/// Parse flags, load the snapshot, build the index, and bind the
/// socket(s). Split from [`run`] — and public — so tests and embedders
/// can drive a bound server without blocking on the accept loop.
pub fn prepare(args: &[String], out: &mut dyn Write) -> Result<PreparedServe, CliError> {
    let flags = Flags::parse_with_switches(args, HELP, &["mmap"])?;
    flags.expect_known(&[
        "names",
        "addr",
        "mmap",
        "index",
        "clusters",
        "nprobe",
        "workers",
        "batch",
        "cache",
        "role",
        "shard-id",
        "ehnp-addr",
        "frame-deadline-ms",
        "conn-workers",
        "max-conns",
        "read-timeout-ms",
        "write-timeout-ms",
        "max-line-bytes",
        "max-k",
        "max-pairs",
        "max-batch",
        "drain-ms",
    ])?;
    let snapshot = flags.one_positional("snapshot file")?;
    let mmap = flags.has("mmap");
    let store = Arc::new(
        EmbeddingStore::open_with(snapshot, flags.get("names"), mmap)
            .map_err(|e| CliError::runtime(e.to_string()))?,
    );
    writeln!(
        out,
        "loaded {} x {} snapshot from {snapshot} ({}, {})",
        store.num_nodes(),
        store.dim(),
        store.format_label(),
        if store.is_mmap() { "mmap" } else { "heap" }
    )
    .map_err(io_err)?;

    let kind = match flags.get("index") {
        Some(k) => k.to_string(),
        None => if store.num_nodes() >= 4096 { "ivf" } else { "brute" }.to_string(),
    };
    let clusters: Option<usize> = flags
        .get("clusters")
        .map(str::parse)
        .transpose()
        .map_err(|e| CliError::usage(format!("bad --clusters: {e}")))?;
    let nprobe: usize = flags.get_or("nprobe", 8usize)?;
    let index: Box<dyn KnnIndex> = match kind.as_str() {
        "brute" => Box::new(BruteForceIndex::new(Arc::clone(&store))),
        "ivf" => {
            let config = IvfConfig { num_clusters: clusters, nprobe, ..Default::default() };
            let ivf = IvfIndex::build(Arc::clone(&store), config);
            writeln!(
                out,
                "built ivf index: {} clusters, nprobe {}",
                ivf.num_clusters(),
                ivf.nprobe()
            )
            .map_err(io_err)?;
            Box::new(ivf)
        }
        other => return Err(CliError::usage(format!("unknown index '{other}'"))),
    };

    let engine_config = EngineConfig {
        workers: flags.get_or("workers", 2usize)?.max(1),
        batch_max: flags.get_or("batch", 32usize)?.max(1),
        cache_capacity: flags.get_or("cache", 1024usize)?,
    };
    let engine = Arc::new(QueryEngine::new(store, index, engine_config));

    let defaults = ServerConfig::default();
    let server_config = ServerConfig {
        conn_workers: flags.get_or("conn-workers", defaults.conn_workers)?.max(1),
        max_connections: flags.get_or("max-conns", defaults.max_connections)?.max(1),
        read_timeout: Duration::from_millis(
            flags.get_or("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?.max(1),
        ),
        write_timeout: Duration::from_millis(
            flags.get_or("write-timeout-ms", defaults.write_timeout.as_millis() as u64)?.max(1),
        ),
        max_line_bytes: flags.get_or("max-line-bytes", defaults.max_line_bytes)?.max(64),
        limits: RequestLimits {
            max_k: flags.get_or("max-k", defaults.limits.max_k)?.max(1),
            max_pairs: flags.get_or("max-pairs", defaults.limits.max_pairs)?.max(1),
            max_batch: flags.get_or("max-batch", defaults.limits.max_batch)?.max(1),
        },
        drain_deadline: Duration::from_millis(
            flags.get_or("drain-ms", defaults.drain_deadline.as_millis() as u64)?,
        ),
    };

    // The `reload` op re-reads the same snapshot path with the same
    // index flags, so an `ehna stream` writer (or any out-of-band
    // retrain) can hot-swap the served table without a restart.
    let snapshot_path = snapshot.to_string();
    let names_path = flags.get("names").map(str::to_string);
    let reload_kind = kind.clone();
    let reloader: Reloader = Arc::new(move || {
        let store = Arc::new(EmbeddingStore::open_with(
            snapshot_path.as_str(),
            names_path.as_deref(),
            mmap,
        )?);
        let index: Box<dyn KnnIndex> = match reload_kind.as_str() {
            "brute" => Box::new(BruteForceIndex::new(Arc::clone(&store))),
            _ => Box::new(IvfIndex::build(
                Arc::clone(&store),
                IvfConfig { num_clusters: clusters, nprobe, ..Default::default() },
            )),
        };
        Ok((store, index))
    });

    // `--role shard` binds the EHNP endpoint on the same engine, so the
    // router's binary traffic and local JSON debugging see one coherent
    // view (stats, counters, snapshot version).
    let shard = match flags.get("role").unwrap_or("standalone") {
        "standalone" => None,
        "shard" => {
            let ehnp_addr = flags.get("ehnp-addr").unwrap_or("127.0.0.1:7879");
            let shard_config = ShardConfig {
                shard_id: flags.get_or("shard-id", 0u32)?,
                frame_deadline: Duration::from_millis(
                    flags.get_or("frame-deadline-ms", 10_000u64)?.max(1),
                ),
            };
            let shard = ShardServer::bind(
                ehnp_addr,
                Arc::clone(&engine),
                server_config.limits.clone(),
                Some(Arc::clone(&reloader)),
                shard_config,
            )
            .map_err(|e| CliError::runtime(format!("cannot bind EHNP on {ehnp_addr}: {e}")))?;
            writeln!(
                out,
                "shard {} serving EHNP on {}",
                flags.get_or("shard-id", 0u32)?,
                shard.local_addr().map_err(io_err)?
            )
            .map_err(io_err)?;
            Some(shard)
        }
        other => return Err(CliError::usage(format!("unknown role '{other}'"))),
    };

    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let handler =
        Arc::new(EngineHandler::new(engine, server_config.limits.clone(), Some(reloader)));
    let server = Server::bind_handler(addr, handler, server_config)
        .map_err(|e| CliError::runtime(format!("cannot bind {addr}: {e}")))?;
    writeln!(out, "serving on {}", server.local_addr().map_err(io_err)?).map_err(io_err)?;
    Ok(PreparedServe { server, shard })
}

/// Run the subcommand (blocks in the accept loop until killed).
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let prepared = prepare(args, out)?;
    // The shard endpoint's accept loop runs on its own thread for the
    // life of the process; the JSON accept loop blocks here.
    let _shard = prepared.shard.map(ShardServer::spawn).transpose().map_err(io_err)?;
    prepared.server.run().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_serve::{query_lines, Json};
    use ehna_tgraph::NodeEmbeddings;

    fn snapshot_file(name: &str, n: usize, dim: usize) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let data: Vec<f32> = (0..n * dim).map(|i| (i % 17) as f32 * 0.25).collect();
        NodeEmbeddings::from_vec(dim, data).save_path(&path).unwrap();
        path
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serves_over_the_wire() {
        let snap = snapshot_file("ehna_cli_serve.bin", 30, 4);
        let mut buf = Vec::new();
        let prepared = prepare(
            &args(&[snap.to_str().unwrap(), "--addr", "127.0.0.1:0", "--workers", "1"]),
            &mut buf,
        )
        .unwrap();
        assert!(prepared.shard.is_none(), "standalone must not bind EHNP");
        let handle = prepared.server.spawn().unwrap();
        let banner = String::from_utf8(buf).unwrap();
        assert!(banner.contains("serving on"), "banner: {banner}");

        let responses =
            query_lines(handle.addr(), &[r#"{"op":"knn","node":"3","k":2}"#.to_string()]).unwrap();
        let resp = Json::parse(&responses[0]).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown();
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn ivf_flags_are_honored() {
        let snap = snapshot_file("ehna_cli_serve_ivf.bin", 64, 4);
        let mut buf = Vec::new();
        let server = prepare(
            &args(&[
                snap.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--index",
                "ivf",
                "--clusters",
                "4",
                "--nprobe",
                "2",
            ]),
            &mut buf,
        )
        .unwrap();
        drop(server);
        let banner = String::from_utf8(buf).unwrap();
        assert!(banner.contains("4 clusters, nprobe 2"), "banner: {banner}");
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn shard_role_serves_both_protocols() {
        use ehna_cluster::{MuxClient, Request, Response};

        let snap = snapshot_file("ehna_cli_serve_shard.bin", 30, 4);
        let mut buf = Vec::new();
        let prepared = prepare(
            &args(&[
                snap.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--role",
                "shard",
                "--shard-id",
                "2",
                "--ehnp-addr",
                "127.0.0.1:0",
                "--workers",
                "1",
            ]),
            &mut buf,
        )
        .unwrap();
        let banner = String::from_utf8(buf).unwrap();
        assert!(banner.contains("shard 2 serving EHNP on"), "banner: {banner}");
        let shard = prepared.shard.expect("--role shard must bind EHNP");
        let ehnp_addr = shard.local_addr().unwrap();
        let shard_handle = shard.spawn().unwrap();
        let handle = prepared.server.spawn().unwrap();

        // Binary port answers router traffic...
        let client =
            MuxClient::connect(ehnp_addr, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        let pong = client.call(&Request::Ping, Duration::from_secs(5)).unwrap();
        assert_eq!(pong, Response::Pong { version: 1 });
        drop(client);

        // ...while the JSON port still works and reports the identity.
        let responses = query_lines(handle.addr(), &[r#"{"op":"stats"}"#.to_string()]).unwrap();
        let stats = Json::parse(&responses[0]).unwrap();
        assert_eq!(stats.get("role").and_then(Json::as_str), Some("shard"));
        assert_eq!(stats.get("shard_id").and_then(Json::as_f64), Some(2.0));

        handle.shutdown();
        shard_handle.shutdown();
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn mmap_serves_a_quantized_snapshot() {
        use ehna_tgraph::{QuantFormat, QuantSpec, QuantizedEmbeddings};
        let dir = std::env::temp_dir().join("ehna_cli_serve_mmap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data: Vec<f32> = (0..30 * 4).map(|i| (i % 17) as f32 * 0.25).collect();
        let emb = NodeEmbeddings::from_vec(4, data);
        let snap = dir.join("emb.f16.ehnq");
        QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F16))
            .unwrap()
            .save_path(&snap)
            .unwrap();

        let mut buf = Vec::new();
        let prepared = prepare(
            &args(&[snap.to_str().unwrap(), "--mmap", "--addr", "127.0.0.1:0", "--workers", "1"]),
            &mut buf,
        )
        .unwrap();
        let banner = String::from_utf8(buf).unwrap();
        let mode = if cfg!(unix) { "mmap" } else { "heap" };
        assert!(banner.contains(&format!("(f16, {mode})")), "banner: {banner}");
        let handle = prepared.server.spawn().unwrap();

        // Queries answer, and `reload` re-maps the same artifact.
        let responses = query_lines(
            handle.addr(),
            &[
                r#"{"op":"knn","node":"3","k":2}"#.to_string(),
                r#"{"op":"reload"}"#.to_string(),
                r#"{"op":"knn","node":"3","k":2}"#.to_string(),
            ],
        )
        .unwrap();
        for (i, line) in responses.iter().enumerate() {
            let resp = Json::parse(line).unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "response {i}: {line}");
        }
        assert_eq!(responses[0], responses[2].replace(",\"cached\":true", ",\"cached\":false"));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_role_is_a_usage_error() {
        let snap = snapshot_file("ehna_cli_serve_badrole.bin", 8, 2);
        let mut buf = Vec::new();
        let err =
            prepare(&args(&[snap.to_str().unwrap(), "--role", "leader"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("leader"), "message: {}", err.message);
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn hardening_flags_are_honored() {
        let snap = snapshot_file("ehna_cli_serve_limits.bin", 30, 4);
        let mut buf = Vec::new();
        let server = prepare(
            &args(&[
                snap.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--max-k",
                "2",
                "--max-conns",
                "8",
                "--read-timeout-ms",
                "2000",
            ]),
            &mut buf,
        )
        .unwrap();
        let handle = server.server.spawn().unwrap();
        let responses = query_lines(
            handle.addr(),
            &[
                r#"{"op":"knn","node":"3","k":5}"#.to_string(),
                r#"{"op":"knn","node":"3","k":2}"#.to_string(),
            ],
        )
        .unwrap();
        let over = Json::parse(&responses[0]).unwrap();
        assert_eq!(over.get("ok"), Some(&Json::Bool(false)), "k over --max-k accepted");
        assert!(over.get("error").and_then(Json::as_str).unwrap().contains("limit"));
        let ok = Json::parse(&responses[1]).unwrap();
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown();
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn reload_over_the_wire_picks_up_a_rewritten_snapshot() {
        let snap = snapshot_file("ehna_cli_serve_reload.bin", 30, 4);
        let mut buf = Vec::new();
        let server = prepare(
            &args(&[snap.to_str().unwrap(), "--addr", "127.0.0.1:0", "--workers", "1"]),
            &mut buf,
        )
        .unwrap();
        let handle = server.server.spawn().unwrap();

        // Grow the snapshot on disk, then ask the server to hot-swap it.
        let data: Vec<f32> = (0..50 * 4).map(|i| (i % 13) as f32 * 0.5).collect();
        NodeEmbeddings::from_vec(4, data).save_path(&snap).unwrap();
        let responses = query_lines(
            handle.addr(),
            &[
                r#"{"op":"knn","node":"45","k":2}"#.to_string(),
                r#"{"op":"reload"}"#.to_string(),
                r#"{"op":"knn","node":"45","k":2}"#.to_string(),
                r#"{"op":"stats"}"#.to_string(),
            ],
        )
        .unwrap();
        let before = Json::parse(&responses[0]).unwrap();
        assert_eq!(before.get("ok"), Some(&Json::Bool(false)), "node 45 served pre-reload");
        let reload = Json::parse(&responses[1]).unwrap();
        assert_eq!(reload.get("ok"), Some(&Json::Bool(true)), "reload: {}", responses[1]);
        assert_eq!(reload.get("version").and_then(Json::as_f64), Some(2.0));
        assert_eq!(reload.get("nodes").and_then(Json::as_f64), Some(50.0));
        let after = Json::parse(&responses[2]).unwrap();
        assert_eq!(after.get("ok"), Some(&Json::Bool(true)), "node 45 missing post-reload");
        let stats = Json::parse(&responses[3]).unwrap();
        assert_eq!(stats.get("snapshot_version").and_then(Json::as_f64), Some(2.0));
        assert_eq!(stats.get("reloads").and_then(Json::as_f64), Some(1.0));
        handle.shutdown();
        let _ = std::fs::remove_file(snap);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        let snap = snapshot_file("ehna_cli_serve_bad.bin", 8, 2);
        let mut buf = Vec::new();
        let err =
            prepare(&args(&[snap.to_str().unwrap(), "--index", "faiss"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2);
        let err = prepare(&args(&["/nonexistent/snapshot.bin"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 1);
        let _ = std::fs::remove_file(snap);
    }
}
