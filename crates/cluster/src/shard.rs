//! The EHNP shard server — one partition's binary query endpoint.
//!
//! A shard process runs the ordinary JSON [`ehna_serve::Server`] for
//! humans and debugging, plus a [`ShardServer`] on a second port for
//! router traffic. Both fronts share one [`QueryEngine`], so stats,
//! per-op counters, and hot-swapped snapshots stay coherent across
//! protocols.
//!
//! The EHNP port is the same socket front end as the JSON port — accept
//! loop, admission cap, worker pool, `overloads`/`timeouts` accounting,
//! drain-then-cut shutdown — with an EHNP [`Protocol`] plugged in. It
//! admits [`MAX_EHNP_CONNECTIONS`] connections and runs as many workers,
//! because router connections are keep-alives that must never queue
//! behind idle ones; a connection past the cap reads one
//! `Error("overloaded")` frame and is closed.
//!
//! Connections are long-lived and multiplexed: a connection idling at a
//! frame boundary is healthy keep-alive (the router holds one connection
//! per replica for hours), while a peer that has started a frame (or the
//! preamble) must finish it within the frame deadline, counted over the
//! whole frame rather than per read, or it is dropped as wedged.

use crate::proto::{read_msg, read_preamble, write_msg, Request, Response};
use ehna_serve::{
    handle_line, EngineStats, Protocol, QueryEngine, Reloader, RequestLimits, Role, ServeError,
    Server, ServerConfig, ServerHandle,
};
use ehna_tgraph::NodeId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections the EHNP port admits at once, and the workers it runs.
/// Each router replica holds one keep-alive connection per shard
/// replica, so this bounds the routers a shard serves.
pub const MAX_EHNP_CONNECTIONS: usize = 32;

/// Tuning for one shard endpoint.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This shard's id within the cluster (reported via `stats`).
    pub shard_id: u32,
    /// How long a peer may take to finish a frame it has started (or
    /// the preamble) before the connection is dropped as wedged.
    pub frame_deadline: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shard_id: 0, frame_deadline: Duration::from_secs(10) }
    }
}

/// A bound-but-not-yet-serving EHNP endpoint.
#[derive(Debug)]
pub struct ShardServer(Server);

/// Handle to a running [`ShardServer`]: the socket front end's handle,
/// which stops the endpoint on [`shutdown`](ServerHandle::shutdown) or
/// drop.
pub type ShardHandle = ServerHandle;

impl ShardServer {
    /// Bind the EHNP endpoint and stamp the engine's identity as shard
    /// `config.shard_id` (visible in `stats` on both protocol fronts).
    ///
    /// # Errors
    /// Bind failures.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<QueryEngine>,
        limits: RequestLimits,
        reloader: Option<Reloader>,
        config: ShardConfig,
    ) -> io::Result<ShardServer> {
        let socket = ServerConfig {
            conn_workers: MAX_EHNP_CONNECTIONS,
            max_connections: MAX_EHNP_CONNECTIONS,
            write_timeout: config.frame_deadline,
            ..ServerConfig::default()
        };
        engine.stats_raw().set_identity(Role::Shard, Some(config.shard_id));
        let ehnp = Ehnp { engine, limits, reloader, frame_deadline: config.frame_deadline };
        Ok(ShardServer(Server::bind_protocol(addr, Arc::new(ehnp), socket)?))
    }

    /// The bound address (useful with port 0 in tests).
    ///
    /// # Errors
    /// If the socket has no local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.0.local_addr()
    }

    /// Start accepting router connections.
    ///
    /// # Errors
    /// If the listener cannot be made non-blocking.
    pub fn spawn(self) -> io::Result<ShardHandle> {
        self.0.spawn()
    }
}

/// The EHNP protocol over one shard's engine.
struct Ehnp {
    engine: Arc<QueryEngine>,
    limits: RequestLimits,
    reloader: Option<Reloader>,
    frame_deadline: Duration,
}

impl Protocol for Ehnp {
    fn serve(&self, stream: &TcpStream, _: &ServerConfig, stop: &AtomicBool) -> io::Result<()> {
        let mut reader = BufReader::new(FrameClock { stream, due: None });
        // The preamble must arrive promptly, and must be EHNP: a JSON
        // client that dialed the wrong port gets a hangup, not a guess
        // at a framing.
        reader.get_mut().due = Some(Instant::now() + self.frame_deadline);
        read_preamble(&mut reader)?;
        let mut writer = BufWriter::new(stream);
        loop {
            // Idling at a frame boundary is healthy keep-alive; the
            // deadline starts with the frame's first byte.
            reader.get_mut().due = None;
            if reader.fill_buf()?.is_empty() {
                return Ok(());
            }
            reader.get_mut().due = Some(Instant::now() + self.frame_deadline);
            // A bad checksum or malformed payload loses the framing; the
            // only safe recovery is a fresh connection.
            let (req_id, req) = read_msg::<_, Request>(&mut reader)?;
            write_msg(&mut writer, req_id, &self.answer(req))?;
            writer.flush()?;
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
        }
    }

    fn overloaded(&self, mut stream: &TcpStream) -> io::Result<()> {
        write_msg(&mut stream, 0, &Response::Error("overloaded".into()))
    }

    fn stats(&self) -> &EngineStats {
        self.engine.stats_raw()
    }
}

/// A socket read under an optional deadline. Without one, a read blocks
/// for as long as the peer idles (shutdown wakes it with
/// `Shutdown::Read`); with one, each read gets only the time left, so a
/// peer trickling a frame byte by byte is cut off when the whole frame
/// is due, not after each byte.
struct FrameClock<'a> {
    stream: &'a TcpStream,
    due: Option<Instant>,
}

impl Read for FrameClock<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.due {
            None => None,
            Some(due) => {
                let left = due.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "peer stalled mid-frame"));
                }
                Some(left)
            }
        };
        self.stream.set_read_timeout(timeout)?;
        self.stream.read(buf)
    }
}

impl Ehnp {
    /// Dispatch one EHNP request against the shared engine. Mirrors the
    /// JSON layer's accounting: every dispatched op lands in the per-op
    /// counters, failures come back as [`Response::Error`] without
    /// dropping the connection.
    fn answer(&self, req: Request) -> Response {
        let engine = &self.engine;
        let stats = engine.stats_raw();
        match req {
            Request::Ping => {
                stats.ops.record("ping");
                // Piggyback the snapshot version on every probe: the
                // router keys its response cache on per-shard versions,
                // so an out-of-band reload (operator hitting the shard
                // directly) invalidates router entries within one probe
                // interval.
                Response::Pong { version: engine.snapshot_version().0 }
            }
            Request::Knn { k, explain, vector } => {
                stats.ops.record("knn");
                self.knn(k, explain, vector).unwrap_or_else(|e| {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                    Response::Error(e.to_string())
                })
            }
            Request::Resolve { key } => {
                stats.ops.record("resolve");
                let store = engine.store();
                let hit = store.resolve_name(&key).map(|id| {
                    let row = store.row(id).expect("resolved id is in range").to_vec();
                    (id.0, store.label(id), row)
                });
                Response::Resolved { hit }
            }
            Request::GetRow { local } => {
                stats.ops.record("resolve");
                let store = engine.store();
                match store.row(NodeId(local)) {
                    Ok(row) => Response::Row {
                        local,
                        label: store.label(NodeId(local)),
                        row: row.to_vec(),
                    },
                    Err(e) => {
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        Response::Error(e.to_string())
                    }
                }
            }
            Request::Stats => {
                // Reuse the JSON stats document verbatim — one source of
                // truth for the debug surface on both protocols.
                Response::StatsText(
                    handle_line(engine, &self.limits, "{\"op\":\"stats\"}").to_string(),
                )
            }
            Request::Reload => {
                stats.ops.record("reload");
                match &self.reloader {
                    None => {
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        Response::Error("bad request: reload not configured".into())
                    }
                    Some(reload) => match reload() {
                        Ok((store, index)) => {
                            let nodes = store.num_nodes() as u64;
                            let version = engine.swap_snapshot(store, index);
                            Response::Reloaded { version: version.0, nodes }
                        }
                        Err(e) => {
                            stats.rejected.fetch_add(1, Ordering::Relaxed);
                            Response::Error(e.to_string())
                        }
                    },
                }
            }
        }
    }

    fn knn(&self, k: u32, explain: bool, vector: Vec<f32>) -> Result<Response, ServeError> {
        let engine = &self.engine;
        if k == 0 {
            return Err(ServeError::BadRequest("'k' must be at least 1".into()));
        }
        // The router over-fetches one neighbor beyond a client's `k`
        // (it drops the query node itself), so the shard allows
        // `max_k + 1`.
        let max_k = self.limits.max_k + 1;
        if k as usize > max_k {
            return Err(ServeError::BadRequest(format!(
                "'k' exceeds the server limit of {max_k} (got {k})"
            )));
        }
        // Cap at the shard's row count rather than erroring: the global
        // over-fetch can exceed a small shard.
        let k = (k as usize).min(engine.store().num_nodes());
        let result = engine.knn_vector(vector, k, explain)?;
        let store = engine.store();
        let neighbors =
            result.neighbors.iter().map(|nb| (nb.id.0, nb.dist, store.label(nb.id))).collect();
        // nprobe 0 means "exact index" on the wire (brute force probes
        // nothing); the router renders that as `null` in explain output.
        let nprobe = engine.index_nprobe().unwrap_or(0) as u32;
        let info = result
            .info
            .map(|i| (i.probed.iter().map(|&c| c as u32).collect(), i.scanned as u64, nprobe));
        Ok(Response::Knn { neighbors, info })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::MuxClient;
    use ehna_serve::{BruteForceIndex, EmbeddingStore, EngineConfig};
    use ehna_tgraph::NodeEmbeddings;

    fn shard_engine(n: usize, dim: usize) -> Arc<QueryEngine> {
        let data: Vec<f32> = (0..n * dim).map(|i| (i % 17) as f32).collect();
        let store =
            Arc::new(EmbeddingStore::new(NodeEmbeddings::from_vec(dim, data), None).unwrap());
        let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
        Arc::new(QueryEngine::new(store, index, EngineConfig::default()))
    }

    fn start(engine: Arc<QueryEngine>) -> ShardHandle {
        start_with(engine, RequestLimits::default())
    }

    fn start_with(engine: Arc<QueryEngine>, limits: RequestLimits) -> ShardHandle {
        let config = ShardConfig { shard_id: 3, ..Default::default() };
        ShardServer::bind("127.0.0.1:0", engine, limits, None, config).unwrap().spawn().unwrap()
    }

    #[test]
    fn serves_knn_rows_and_stats_over_ehnp() {
        let engine = shard_engine(20, 4);
        let handle = start(Arc::clone(&engine));
        let client =
            MuxClient::connect(handle.addr(), Duration::from_secs(2), Duration::from_secs(2))
                .unwrap();
        let t = Duration::from_secs(5);

        assert_eq!(client.call(&Request::Ping, t).unwrap(), Response::Pong { version: 1 });

        let query = engine.store().row(NodeId(0)).unwrap().to_vec();
        match client.call(&Request::Knn { k: 3, explain: false, vector: query }, t).unwrap() {
            Response::Knn { neighbors, info } => {
                assert_eq!(neighbors.len(), 3);
                assert_eq!(neighbors[0].0, 0, "the row itself is its own nearest neighbor");
                assert_eq!(neighbors[0].1, 0.0);
                assert!(info.is_none());
            }
            other => panic!("knn got {other:?}"),
        }

        // Over-fetch beyond the shard's rows is capped, not an error.
        let query = engine.store().row(NodeId(1)).unwrap().to_vec();
        match client.call(&Request::Knn { k: 999, explain: false, vector: query }, t).unwrap() {
            Response::Knn { neighbors, .. } => assert_eq!(neighbors.len(), 20),
            other => panic!("capped knn got {other:?}"),
        }

        match client.call(&Request::GetRow { local: 7 }, t).unwrap() {
            Response::Row { local, label, row } => {
                assert_eq!(local, 7);
                assert_eq!(label, "7");
                assert_eq!(&row[..], &*engine.store().row(NodeId(7)).unwrap());
            }
            other => panic!("get_row got {other:?}"),
        }
        match client.call(&Request::GetRow { local: 999 }, t).unwrap() {
            Response::Error(msg) => assert!(msg.contains("unknown node"), "msg: {msg}"),
            other => panic!("bad get_row got {other:?}"),
        }

        // No name map on this shard: resolve misses (and must NOT fall
        // back to reading the key as a local row number).
        match client.call(&Request::Resolve { key: "7".into() }, t).unwrap() {
            Response::Resolved { hit } => assert!(hit.is_none()),
            other => panic!("resolve got {other:?}"),
        }

        match client.call(&Request::Stats, t).unwrap() {
            Response::StatsText(text) => {
                assert!(text.contains("\"role\":\"shard\""), "stats: {text}");
                assert!(text.contains("\"shard_id\":3"), "stats: {text}");
            }
            other => panic!("stats got {other:?}"),
        }

        match client.call(&Request::Reload, t).unwrap() {
            Response::Error(msg) => assert!(msg.contains("reload not configured"), "msg: {msg}"),
            other => panic!("reload got {other:?}"),
        }

        drop(client);
        handle.shutdown();
    }

    #[test]
    fn knn_refuses_k_past_max_k_plus_one() {
        let engine = shard_engine(20, 4);
        let handle =
            start_with(Arc::clone(&engine), RequestLimits { max_k: 2, ..Default::default() });
        let client =
            MuxClient::connect(handle.addr(), Duration::from_secs(2), Duration::from_secs(2))
                .unwrap();
        let t = Duration::from_secs(5);
        let query = engine.store().row(NodeId(0)).unwrap().to_vec();
        // k = max_k + 1 is the router's over-fetch and is answered.
        let knn = |k| Request::Knn { k, explain: false, vector: query.clone() };
        match client.call(&knn(3), t).unwrap() {
            Response::Knn { neighbors, .. } => assert_eq!(neighbors.len(), 3),
            other => panic!("k = 3 got {other:?}"),
        }
        assert_eq!(engine.stats().rejected, 0);
        match client.call(&knn(4), t).unwrap() {
            Response::Error(msg) => assert!(msg.contains("limit"), "msg: {msg}"),
            other => panic!("k = 4 got {other:?}"),
        }
        assert_eq!(engine.stats().rejected, 1);
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn json_client_on_the_ehnp_port_is_dropped() {
        let engine = shard_engine(5, 2);
        let handle = start(engine);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        // The server hangs up instead of hanging us.
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        let n = stream.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server should close without writing");
        handle.shutdown();
    }

    #[test]
    fn shutdown_interrupts_idle_keepalive_connections() {
        let engine = shard_engine(5, 2);
        let handle = start(engine);
        let client =
            MuxClient::connect(handle.addr(), Duration::from_secs(2), Duration::from_secs(2))
                .unwrap();
        assert_eq!(
            client.call(&Request::Ping, Duration::from_secs(5)).unwrap(),
            Response::Pong { version: 1 }
        );
        // The connection now idles at a frame boundary; shutdown must
        // not wait on it.
        let start = Instant::now();
        handle.shutdown();
        assert!(start.elapsed() < Duration::from_secs(5), "shutdown hung on idle conn");
    }
}
