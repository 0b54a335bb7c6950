//! The EHNP shard server — one partition's binary query endpoint.
//!
//! A shard process runs the ordinary JSON [`ehna_serve::Server`] for
//! humans and debugging, plus a [`ShardServer`] on a second port for
//! router traffic. Both fronts share one [`QueryEngine`], so stats,
//! per-op counters, and hot-swapped snapshots stay coherent across
//! protocols.
//!
//! Connections are long-lived and multiplexed: a connection idling at a
//! frame boundary is healthy keep-alive (the router holds one connection
//! per replica for hours), while a connection that stalls *mid-frame*
//! for longer than the frame deadline is dropped as wedged. The split is
//! why frame reads go through `read_full` rather than a blanket socket
//! timeout — a timeout inside `read_exact` can eat bytes and desync the
//! framing.

use crate::proto::{decode_frame, write_msg, ProtoError, Request, Response, MAX_FRAME_LEN};
use ehna_serve::{handle_line, QueryEngine, Reloader, RequestLimits, Role, ServeError};
use ehna_tgraph::NodeId;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one shard endpoint.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This shard's id within the cluster (reported via `stats`).
    pub shard_id: u32,
    /// How long a peer may take to finish a frame it has started (or
    /// the preamble) before the connection is dropped as wedged.
    pub frame_deadline: Duration,
    /// Poll granularity for the accept loop and idle reads; bounds
    /// shutdown latency.
    pub poll: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shard_id: 0,
            frame_deadline: Duration::from_secs(10),
            poll: Duration::from_millis(50),
        }
    }
}

/// A bound-but-not-yet-serving EHNP endpoint.
pub struct ShardServer {
    listener: TcpListener,
    engine: Arc<QueryEngine>,
    limits: RequestLimits,
    reloader: Option<Reloader>,
    config: ShardConfig,
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Handle to a running [`ShardServer`]; dropping it without calling
/// [`shutdown`](ShardHandle::shutdown) leaves the threads detached.
pub struct ShardHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

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
        let listener = TcpListener::bind(addr)?;
        engine.stats_raw().set_identity(Role::Shard, Some(config.shard_id));
        Ok(ShardServer { listener, engine, limits, reloader, config })
    }

    /// The bound address (useful with port 0 in tests).
    ///
    /// # Errors
    /// If the socket has no local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Start accepting router connections.
    ///
    /// # Errors
    /// If the listener cannot be made non-blocking.
    pub fn spawn(self) -> io::Result<ShardHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name(format!("ehnp-shard-{}", self.config.shard_id))
            .spawn(move || accept_loop(self, &stop2))
            .expect("spawn shard accept loop");
        Ok(ShardHandle { addr, stop, accept: Some(accept) })
    }
}

impl ShardHandle {
    /// The address the shard is serving EHNP on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake idle connections, and join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(server: ShardServer, stop: &Arc<AtomicBool>) {
    let ShardServer { listener, engine, limits, reloader, config } = server;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let engine = Arc::clone(&engine);
                let limits = limits.clone();
                let reloader = reloader.clone();
                let config = config.clone();
                let stop = Arc::clone(stop);
                conns.retain(|h| !h.is_finished());
                conns.push(
                    std::thread::Builder::new()
                        .name("ehnp-conn".into())
                        .spawn(move || {
                            let _ = serve_conn(stream, &engine, &limits, &reloader, &config, &stop);
                        })
                        .expect("spawn shard connection"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(config.poll);
            }
            Err(_) => std::thread::sleep(config.poll),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Outcome of one polled read.
enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// The peer closed cleanly before sending anything.
    Closed,
    /// The server is shutting down.
    Stop,
}

/// Fill `buf` from `stream`, polling every `poll` so the stop flag stays
/// responsive. When `idle_ok`, the peer may take forever to send the
/// *first* byte (keep-alive at a frame boundary); once any byte arrives
/// — or always, when `!idle_ok` — the rest must land within `deadline`.
///
/// Partial progress is kept in `buf` across polls, which is the whole
/// point: a socket-level timeout inside `read_exact` would discard
/// half-read bytes and desync the frame stream.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle_ok: bool,
    deadline: Duration,
    stop: &AtomicBool,
) -> io::Result<ReadOutcome> {
    let mut filled = 0usize;
    let mut started: Option<Instant> = if idle_ok { None } else { Some(Instant::now()) };
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(ReadOutcome::Stop);
        }
        if let Some(t0) = started {
            if t0.elapsed() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("peer stalled mid-frame ({filled}/{} bytes)", buf.len()),
                ));
            }
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => {
                if started.is_none() {
                    started = Some(Instant::now());
                }
                filled += n;
                if filled == buf.len() {
                    return Ok(ReadOutcome::Full);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn serve_conn(
    mut stream: TcpStream,
    engine: &Arc<QueryEngine>,
    limits: &RequestLimits,
    reloader: &Option<Reloader>,
    config: &ShardConfig,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.poll))?;
    stream.set_write_timeout(Some(config.frame_deadline))?;

    // Preamble: must arrive promptly, and must be EHNP (a JSON client
    // that dialed the wrong port gets a hangup, not a hung read).
    let mut preamble = [0u8; 8];
    match read_full(&mut stream, &mut preamble, false, config.frame_deadline, stop)? {
        ReadOutcome::Full => {}
        ReadOutcome::Closed | ReadOutcome::Stop => return Ok(()),
    }
    if crate::proto::read_preamble(&mut &preamble[..]).is_err() {
        return Ok(()); // wrong protocol: drop without guessing a framing
    }

    let mut writer = BufWriter::new(stream.try_clone()?);
    loop {
        // Frame length prefix: idling here is healthy keep-alive.
        let mut len_buf = [0u8; 4];
        match read_full(&mut stream, &mut len_buf, true, config.frame_deadline, stop)? {
            ReadOutcome::Full => {}
            ReadOutcome::Closed | ReadOutcome::Stop => return Ok(()),
        }
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME_LEN {
            return Ok(()); // hostile or corrupt length: drop before allocating
        }
        // Rest of the frame: the peer has started, so it must finish.
        let mut rest = vec![0u8; len as usize + 8];
        match read_full(&mut stream, &mut rest, false, config.frame_deadline, stop)? {
            ReadOutcome::Full => {}
            ReadOutcome::Closed | ReadOutcome::Stop => return Ok(()),
        }
        let mut frame = Vec::with_capacity(4 + rest.len());
        frame.extend_from_slice(&len_buf);
        frame.extend_from_slice(&rest);
        let (req_id, req) = match decode_frame::<Request>(&frame) {
            Ok(((id, req), _)) => (id, req),
            // Framing is lost (bad checksum / malformed payload): the
            // only safe recovery is a fresh connection.
            Err(ProtoError::Io(_) | ProtoError::Corrupt(_)) => return Ok(()),
        };
        let resp = answer(engine, limits, reloader, req);
        write_msg(&mut writer, req_id, &resp)?;
        writer.flush()?;
    }
}

/// Dispatch one EHNP request against the shared engine. Mirrors the JSON
/// layer's accounting: every dispatched op lands in the per-op counters,
/// failures come back as [`Response::Error`] without dropping the
/// connection.
fn answer(
    engine: &Arc<QueryEngine>,
    limits: &RequestLimits,
    reloader: &Option<Reloader>,
    req: Request,
) -> Response {
    let stats = engine.stats_raw();
    match req {
        Request::Ping => {
            stats.ops.record("ping");
            // Piggyback the snapshot version on every probe: the router
            // keys its response cache on per-shard versions, so an
            // out-of-band reload (operator hitting the shard directly)
            // invalidates router entries within one probe interval.
            Response::Pong { version: engine.snapshot_version().0 }
        }
        Request::Knn { k, explain, vector } => {
            stats.ops.record("knn");
            knn(engine, k, explain, vector).unwrap_or_else(|e| {
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
                Ok(row) => {
                    Response::Row { local, label: store.label(NodeId(local)), row: row.to_vec() }
                }
                Err(e) => {
                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                    Response::Error(e.to_string())
                }
            }
        }
        Request::Stats => {
            // Reuse the JSON stats document verbatim — one source of
            // truth for the debug surface on both protocols.
            Response::StatsText(handle_line(engine, limits, "{\"op\":\"stats\"}").to_string())
        }
        Request::Reload => {
            stats.ops.record("reload");
            match reloader {
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

fn knn(
    engine: &Arc<QueryEngine>,
    k: u32,
    explain: bool,
    vector: Vec<f32>,
) -> Result<Response, ServeError> {
    if k == 0 {
        return Err(ServeError::BadRequest("'k' must be at least 1".into()));
    }
    // Cap at the shard's row count rather than erroring: the router
    // over-fetches k+1 globally, which can exceed a small shard.
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
        let config =
            ShardConfig { shard_id: 3, poll: Duration::from_millis(10), ..Default::default() };
        ShardServer::bind("127.0.0.1:0", engine, RequestLimits::default(), None, config)
            .unwrap()
            .spawn()
            .unwrap()
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
