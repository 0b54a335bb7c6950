//! `ehna router` — front a shard cluster with the JSON line protocol.

use crate::commands::io_err;
use crate::flags::Flags;
use crate::CliError;
use ehna_cluster::{ClusterManifest, Router, RouterConfig};
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ehna_serve::{RequestLimits, Server, ServerConfig};

const HELP: &str = "ehna router — scatter-gather front end for a shard cluster

usage: ehna router --manifest DIR --shard ADDR[,ADDR] [--shard ...]
                   [--addr HOST:PORT] [--no-verify]
                   [--shard-timeout-ms N] [--connect-timeout-ms N]
                   [--probe-interval-ms N] [--probe-timeout-ms N]
                   [--breaker-threshold N] [--breaker-cooldown-ms N]
                   [--reload-timeout-ms N] [--cache-capacity N]
                   [--conn-workers N] [--max-conns N]
                   [--read-timeout-ms N] [--write-timeout-ms N]
                   [--max-line-bytes N] [--max-k N] [--max-pairs N]
                   [--max-batch N] [--drain-ms N]

Clients speak the same JSON line protocol as a standalone `ehna serve`;
the router scatter-gathers each knn/score/batch across every shard over
EHNP v2 (the binary shard protocol) and merges per-shard top-k lists by
(distance, global id) — answers are byte-identical to an unsharded
server. Scatter is pipelined: every shard's request is on the wire
before any reply is read. Give one --shard flag per shard, in shard
order; each value is a comma-separated replica list. Replicas are
health-probed, load-balanced (power of two choices by in-flight count),
failed over on error, and circuit-broken after repeated failures.
Node-keyed knn answers are cached, keyed by the cluster-wide snapshot
version vector; `reload` rolls the cluster shard-by-shard,
replica-by-replica and invalidates the cache by construction.

flags:
  --manifest DIR          directory holding cluster.manifest (from
                          `ehna shard`)
  --shard ADDR[,ADDR]     EHNP replica addresses for one shard;
                          repeat once per shard, in shard-id order
  --addr ADDR             listen address (default 127.0.0.1:7878)
  --no-verify             skip re-hashing shard files under DIR (use
                          when the router host does not hold them)
  --shard-timeout-ms N    per-shard call budget (default 5000)
  --connect-timeout-ms N  replica dial budget (default 2000)
  --probe-interval-ms N   health-probe period; 0 disables (default 2000)
  --probe-timeout-ms N    per-probe budget, kept short so one tar-pit
                          replica cannot stall the probe round and
                          delay another replica's recovery
                          (default 1000)
  --breaker-threshold N   consecutive failures that open a replica's
                          circuit breaker (default 3)
  --breaker-cooldown-ms N how long an open breaker skips its replica
                          (default 5000)
  --reload-timeout-ms N   per-replica rolling-reload budget
                          (default 60000)
  --cache-capacity N      router answer-cache entries; 0 disables
                          (default 1024)

hardening (same client-facing front end as `ehna serve`):
  --conn-workers N --max-conns N --read-timeout-ms N
  --write-timeout-ms N --max-line-bytes N --max-k N --max-pairs N
  --max-batch N --drain-ms N";

/// Switch-style flags (present/absent, no value).
const SWITCHES: &[&str] = &["no-verify"];

/// Parse one `--shard` value into its replica addresses.
fn parse_replicas(shard: usize, value: &str) -> Result<Vec<SocketAddr>, CliError> {
    value
        .split(',')
        .map(|tok| {
            let tok = tok.trim();
            tok.to_socket_addrs()
                .map_err(|e| CliError::usage(format!("bad --shard {shard} address '{tok}': {e}")))?
                .next()
                .ok_or_else(|| {
                    CliError::usage(format!("--shard {shard} address '{tok}' resolved to nothing"))
                })
        })
        .collect()
}

/// Parse flags, load + verify the manifest, build the router, and bind
/// the client socket. Split from [`run`] — and public — so tests can
/// drive a bound router without blocking on the accept loop.
pub fn prepare(args: &[String], out: &mut dyn Write) -> Result<Server, CliError> {
    let flags = Flags::parse_with_switches(args, HELP, SWITCHES)?;
    flags.expect_known(&[
        "manifest",
        "shard",
        "addr",
        "no-verify",
        "shard-timeout-ms",
        "connect-timeout-ms",
        "probe-interval-ms",
        "probe-timeout-ms",
        "breaker-threshold",
        "breaker-cooldown-ms",
        "reload-timeout-ms",
        "cache-capacity",
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
    if !flags.positionals().is_empty() {
        return Err(CliError::usage(format!("unexpected positional arguments\n{HELP}")));
    }
    let Some(manifest_dir) = flags.get("manifest") else {
        return Err(CliError::usage(format!("--manifest is required\n{HELP}")));
    };
    let dir = Path::new(manifest_dir);
    let manifest = ClusterManifest::load(dir).map_err(|e| CliError::runtime(e.to_string()))?;
    if !flags.has("no-verify") {
        manifest.verify(dir).map_err(|e| {
            CliError::runtime(format!("{e} (pass --no-verify to skip the file check)"))
        })?;
    }

    let shard_flags = flags.all("shard");
    if shard_flags.is_empty() {
        return Err(CliError::usage(format!(
            "need one --shard flag per shard ({} for this manifest)\n{HELP}",
            manifest.num_shards
        )));
    }
    let replicas: Vec<Vec<SocketAddr>> = shard_flags
        .iter()
        .enumerate()
        .map(|(i, v)| parse_replicas(i, v))
        .collect::<Result<_, _>>()?;

    let defaults = ServerConfig::default();
    let limits = RequestLimits {
        max_k: flags.get_or("max-k", defaults.limits.max_k)?.max(1),
        max_pairs: flags.get_or("max-pairs", defaults.limits.max_pairs)?.max(1),
        max_batch: flags.get_or("max-batch", defaults.limits.max_batch)?.max(1),
    };
    let router_defaults = RouterConfig::default();
    let config = RouterConfig {
        shard_timeout: Duration::from_millis(
            flags
                .get_or("shard-timeout-ms", router_defaults.shard_timeout.as_millis() as u64)?
                .max(1),
        ),
        connect_timeout: Duration::from_millis(
            flags
                .get_or("connect-timeout-ms", router_defaults.connect_timeout.as_millis() as u64)?
                .max(1),
        ),
        probe_interval: Duration::from_millis(
            flags.get_or("probe-interval-ms", router_defaults.probe_interval.as_millis() as u64)?,
        ),
        probe_timeout: Duration::from_millis(
            flags
                .get_or("probe-timeout-ms", router_defaults.probe_timeout.as_millis() as u64)?
                .max(1),
        ),
        breaker_threshold: flags
            .get_or("breaker-threshold", router_defaults.breaker_threshold)?
            .max(1),
        breaker_cooldown: Duration::from_millis(
            flags
                .get_or("breaker-cooldown-ms", router_defaults.breaker_cooldown.as_millis() as u64)?
                .max(1),
        ),
        reload_timeout: Duration::from_millis(
            flags
                .get_or("reload-timeout-ms", router_defaults.reload_timeout.as_millis() as u64)?
                .max(1),
        ),
        cache_capacity: flags.get_or("cache-capacity", router_defaults.cache_capacity)?,
    };

    writeln!(
        out,
        "routing {} shards, {} nodes, dim {} (manifest {})",
        manifest.num_shards, manifest.total_nodes, manifest.dim, manifest_dir
    )
    .map_err(io_err)?;
    for (i, set) in replicas.iter().enumerate() {
        let list: Vec<String> = set.iter().map(SocketAddr::to_string).collect();
        writeln!(out, "shard {i}: replicas [{}]", list.join(", ")).map_err(io_err)?;
    }

    let router = Router::new(manifest, replicas, limits.clone(), config)
        .map_err(|e| CliError::runtime(e.to_string()))?;

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
        limits,
        drain_deadline: Duration::from_millis(
            flags.get_or("drain-ms", defaults.drain_deadline.as_millis() as u64)?,
        ),
    };
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let server = Server::bind_handler(addr, Arc::new(router) as _, server_config)
        .map_err(|e| CliError::runtime(format!("cannot bind {addr}: {e}")))?;
    writeln!(out, "routing on {}", server.local_addr().map_err(io_err)?).map_err(io_err)?;
    Ok(server)
}

/// Run the subcommand (blocks in the accept loop until killed).
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    prepare(args, out)?.run().map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_cluster::{plan_shards, ShardConfig, ShardHandle, ShardServer};
    use ehna_serve::{
        query_lines, BruteForceIndex, EmbeddingStore, EngineConfig, Json, KnnIndex, QueryEngine,
    };
    use ehna_tgraph::NodeEmbeddings;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Shard a 12-node table into `dir`, serve every shard over EHNP,
    /// and return the running shards in shard order.
    fn cluster(dir: &Path, shards: u32) -> Vec<ShardHandle> {
        std::fs::create_dir_all(dir).unwrap();
        let data: Vec<f32> = (0..12 * 4).map(|i| ((i * 7) % 5) as f32).collect();
        let emb = NodeEmbeddings::from_vec(4, data);
        let manifest = plan_shards(&emb, None, shards, dir).unwrap();
        manifest
            .shards
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                let snap = dir.join(&entry.snapshot);
                let names = dir.join(&entry.names);
                let store = Arc::new(
                    EmbeddingStore::open(snap.to_str().unwrap(), Some(names.to_str().unwrap()))
                        .unwrap(),
                );
                let index: Box<dyn KnnIndex> = Box::new(BruteForceIndex::new(Arc::clone(&store)));
                let engine = Arc::new(QueryEngine::new(
                    store,
                    index,
                    EngineConfig { workers: 1, ..Default::default() },
                ));
                let shard = ShardServer::bind(
                    "127.0.0.1:0",
                    engine,
                    RequestLimits::default(),
                    None,
                    ShardConfig { shard_id: i as u32, ..Default::default() },
                )
                .unwrap();
                shard.spawn().unwrap()
            })
            .collect()
    }

    #[test]
    fn routes_queries_to_a_live_cluster() {
        let dir = std::env::temp_dir().join("ehna_cli_router_cmd");
        let _ = std::fs::remove_dir_all(&dir);
        // Held to the end of the test: dropping a handle stops its shard.
        let shards = cluster(&dir, 2);
        let mut buf = Vec::new();
        let server = prepare(
            &args(&[
                "--manifest",
                dir.to_str().unwrap(),
                "--shard",
                &shards[0].addr().to_string(),
                "--shard",
                &shards[1].addr().to_string(),
                "--addr",
                "127.0.0.1:0",
                "--probe-interval-ms",
                "0",
                "--probe-timeout-ms",
                "500",
                "--cache-capacity",
                "64",
            ]),
            &mut buf,
        )
        .unwrap();
        let banner = String::from_utf8(buf).unwrap();
        assert!(banner.contains("routing on"), "banner: {banner}");
        let handle = server.spawn().unwrap();
        let responses = query_lines(
            handle.addr(),
            &[
                r#"{"op":"knn","node":"3","k":2}"#.to_string(),
                r#"{"op":"knn","node":"3","k":2}"#.to_string(),
                r#"{"op":"stats"}"#.to_string(),
            ],
        )
        .unwrap();
        let knn = Json::parse(&responses[0]).unwrap();
        assert_eq!(knn.get("ok"), Some(&Json::Bool(true)), "knn: {}", responses[0]);
        assert_eq!(knn.get("cached"), Some(&Json::Bool(false)), "cold: {}", responses[0]);
        let warm = Json::parse(&responses[1]).unwrap();
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)), "warm: {}", responses[1]);
        let stats = Json::parse(&responses[2]).unwrap();
        assert_eq!(stats.get("role").and_then(Json::as_str), Some("router"));
        assert_eq!(stats.get("cache_hits").and_then(Json::as_usize), Some(1));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        let mut buf = Vec::new();
        let err = run(&args(&["--shard", "127.0.0.1:1"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 2, "missing --manifest: {}", err.message);
        let err = run(&args(&["--manifest", "/nonexistent/dir"]), &mut buf).unwrap_err();
        assert_eq!(err.code, 1, "missing manifest file: {}", err.message);
    }

    #[test]
    fn replica_count_mismatch_is_a_runtime_error() {
        let dir = std::env::temp_dir().join("ehna_cli_router_mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let data: Vec<f32> = (0..8 * 2).map(|i| i as f32).collect();
        plan_shards(&NodeEmbeddings::from_vec(2, data), None, 2, &dir).unwrap();
        let mut buf = Vec::new();
        let err = prepare(
            &args(&["--manifest", dir.to_str().unwrap(), "--shard", "127.0.0.1:1"]),
            &mut buf,
        )
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("replica sets"), "message: {}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
