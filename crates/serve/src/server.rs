//! The socket front end, and the line-delimited JSON protocol on it.
//!
//! One request per line, one response per line. Ops:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"knn","node":"alice","k":10}
//! {"op":"knn","vector":[0.1,0.2,...],"k":5,"explain":true}
//! {"op":"score","pairs":[["alice","bob"],["3","7"]]}
//! {"op":"stats"}
//! {"op":"reload"}
//! ```
//!
//! Every response carries `"ok"`; failures add `"error"`. Scores and
//! distances are squared Euclidean (Eq. 5) — lower = stronger link.
//!
//! # Architecture: one front end, many protocols
//!
//! [`Server`] is the only socket layer in the system. It owns the accept
//! loop, admission control, the worker pool, the connection registry and
//! shutdown; a [`Protocol`] owns only what is said on one admitted
//! connection. Every [`LineHandler`] (the engine, the cluster router)
//! speaks the JSON line protocol; the cluster's EHNP shard port is the
//! other protocol.
//!
//! The JSON request contract itself (parsing, validation, limits and
//! every response envelope) is [`crate::request`], shared by both
//! handlers. This module supplies its standalone [`Backend`]: key
//! resolution, knn, scores, `stats` and `reload` over a [`QueryEngine`].
//!
//! Connections are NOT handled one-thread-per-socket. A non-blocking
//! accept loop admits sockets into a bounded queue drained by a fixed
//! pool of `ServerConfig::conn_workers` handler threads, which block on
//! the queue between connections. Admission is gated on
//! `ServerConfig::max_connections` (queued + in-flight): a client
//! arriving past the cap is told it is `overloaded` in its protocol's
//! own error format and disconnected, so a connection flood degrades
//! into fast load-shedding instead of unbounded thread spawn.
//!
//! Per-connection defenses on the JSON protocol:
//!
//! * read/write socket timeouts (`read_timeout` / `write_timeout`) cut
//!   off slow-loris clients that trickle or never complete a request;
//! * a length-capped line reader bounds request-line memory at
//!   `max_line_bytes` — an endless line gets a structured error and a
//!   disconnect, never an OOM;
//! * per-request limits ([`RequestLimits`], held by the handler that
//!   enforces them) bound the work and allocation a single request can
//!   demand.
//!
//! Shedding, timeouts, and malformed/over-limit requests are all
//! counted in [`EngineStats`] and exposed through
//! the `stats` op.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or dropping the handle) is deterministic:
//! the accept loop runs non-blocking and polls the stop flag (no
//! self-connect hack) and its exit drops the queue's sender, which wakes
//! the idle workers; queued but unserved sockets are dropped, idle
//! connections have their read half shut down so blocked reads wake
//! immediately, and in-flight requests get up to `drain_deadline` to
//! finish writing their responses before remaining sockets are
//! force-closed and the workers joined.

use crate::engine::{QueryEngine, Snapshot};
use crate::index::KnnIndex;
use crate::json::Json;
use crate::request::{
    self, bad_request, error_response, op_counts_json, Backend, KnnAnswer, KnnQuery, RequestLimits,
};
use crate::stats::EngineStats;
use crate::store::EmbeddingStore;
use crate::{lock, ServeError};
use ehna_tgraph::NodeId;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the non-blocking accept loop polls the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// How often the shutdown drain re-checks the active-connection count.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Socket-layer tuning and protection knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler threads (the bounded pool).
    pub conn_workers: usize,
    /// Cap on concurrently admitted connections (queued + being
    /// served); arrivals beyond it are shed with an `overloaded` error.
    pub max_connections: usize,
    /// Socket read timeout: a connection that sends nothing for this
    /// long is dropped (counts in `timeouts`).
    pub read_timeout: Duration,
    /// Socket write timeout: a client that will not drain its response
    /// for this long is dropped (counts in `timeouts`).
    pub write_timeout: Duration,
    /// Longest accepted request line, in bytes; longer lines get a
    /// structured error and a disconnect.
    pub max_line_bytes: usize,
    /// How long `shutdown` waits for in-flight requests to finish
    /// before force-closing their sockets.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            conn_workers: 4,
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: 1 << 20,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Builds a fresh `(store, index)` pair for the `reload` op — typically
/// by re-reading a snapshot file that `ehna stream` rewrote. Runs on a
/// connection-worker thread; queries keep flowing against the old
/// snapshot while it loads, and the swap itself is atomic.
pub type Reloader =
    Arc<dyn Fn() -> Result<(Arc<EmbeddingStore>, Box<dyn KnnIndex>), ServeError> + Send + Sync>;

/// One wire protocol behind [`Server`]: what is said on one admitted
/// connection. The server does everything else — accepting, admission,
/// the worker pool, the connection registry, and shutdown.
pub trait Protocol: Send + Sync {
    /// Serve one admitted connection until the peer leaves or an error
    /// ends it. Once `stop` is set, close after the in-flight response
    /// instead of waiting for another request. A returned timeout error
    /// (`TimedOut` or `WouldBlock`) is counted in `timeouts`.
    ///
    /// # Errors
    /// The IO error that ended the connection.
    fn serve(&self, stream: &TcpStream, config: &ServerConfig, stop: &AtomicBool)
        -> io::Result<()>;

    /// Tell a client shed at admission that the server is overloaded.
    ///
    /// # Errors
    /// Write failures (the server drops the socket either way).
    fn overloaded(&self, stream: &TcpStream) -> io::Result<()>;

    /// The counters the socket layer records shed connections and
    /// socket timeouts against.
    fn stats(&self) -> &EngineStats;
}

/// A JSON line protocol backend: turns one request line into one
/// response document.
///
/// Every `LineHandler` is a [`Protocol`]: the line loop reads requests
/// with a capped reader and answers each with one line. The standard
/// engine-backed server ([`EngineHandler`]) and the cluster router are
/// both `LineHandler`s.
pub trait LineHandler: Send + Sync {
    /// Answer one request line with one response document. Must not
    /// panic on malformed input — answer with `"ok":false` instead.
    fn handle_line(&self, line: &str) -> Json;

    /// The counters the socket layer records shed connections, socket
    /// timeouts, and oversized lines against.
    fn stats(&self) -> &EngineStats;
}

impl<H: LineHandler + ?Sized> LineHandler for Arc<H> {
    fn handle_line(&self, line: &str) -> Json {
        (**self).handle_line(line)
    }

    fn stats(&self) -> &EngineStats {
        (**self).stats()
    }
}

impl<H: LineHandler> Protocol for H {
    fn serve(
        &self,
        stream: &TcpStream,
        config: &ServerConfig,
        stop: &AtomicBool,
    ) -> io::Result<()> {
        // The JSON line protocol's request/response loop.
        let mut reader = BufReader::new(stream);
        let mut writer = BufWriter::new(stream);
        loop {
            let line = match read_line_capped(&mut reader, config.max_line_bytes)? {
                LineRead::Eof => return Ok(()),
                LineRead::TooLong => {
                    LineHandler::stats(self).rejected.fetch_add(1, Ordering::Relaxed);
                    let resp = error_response(&format!(
                        "request line exceeds {} bytes",
                        config.max_line_bytes
                    ));
                    let _ = writeln!(writer, "{resp}").and_then(|()| writer.flush());
                    return Ok(());
                }
                LineRead::Line(line) => line,
            };
            if line.trim().is_empty() {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            let response = self.handle_line(&line);
            writeln!(writer, "{response}").and_then(|()| writer.flush())?;
            // Draining: the in-flight request got its response; close
            // instead of waiting for another.
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
        }
    }

    fn overloaded(&self, mut stream: &TcpStream) -> io::Result<()> {
        stream.write_all(format!("{}\n", error_response("overloaded")).as_bytes())
    }

    fn stats(&self) -> &EngineStats {
        LineHandler::stats(self)
    }
}

/// The standard [`LineHandler`]: requests answered by a [`QueryEngine`],
/// with an optional [`Reloader`] behind the `reload` op.
pub struct EngineHandler {
    engine: Arc<QueryEngine>,
    limits: RequestLimits,
    reloader: Option<Reloader>,
}

impl EngineHandler {
    /// Handler over `engine`, enforcing `limits` per request. Without a
    /// `reloader`, `reload` requests get a structured
    /// `"reload not configured"` error.
    pub fn new(
        engine: Arc<QueryEngine>,
        limits: RequestLimits,
        reloader: Option<Reloader>,
    ) -> Self {
        EngineHandler { engine, limits, reloader }
    }
}

impl LineHandler for EngineHandler {
    fn handle_line(&self, line: &str) -> Json {
        let backend = EngineBackend::new(&self.engine, self.reloader.as_ref());
        request::handle_line(&backend, &self.limits, line)
    }

    fn stats(&self) -> &EngineStats {
        self.engine.stats_raw()
    }
}

impl std::fmt::Debug for EngineHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandler")
            .field("engine", &self.engine)
            .field("reload", &self.reloader.is_some())
            .finish_non_exhaustive()
    }
}

/// State shared between the accept loop, the worker pool, and the
/// shutdown path.
struct ServerShared {
    handler: Arc<dyn Protocol>,
    config: ServerConfig,
    stop: AtomicBool,
    /// Admitted connections not yet closed (queued + being served).
    active: AtomicUsize,
    /// Clones of in-service sockets, so shutdown can unblock their
    /// reads without waiting out the read timeout.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    handler: Arc<dyn Protocol>,
    config: ServerConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port, e.g.
    /// `127.0.0.1:0`) with default [`ServerConfig`].
    ///
    /// # Errors
    /// Socket errors.
    pub fn bind<A: ToSocketAddrs>(addr: A, engine: Arc<QueryEngine>) -> io::Result<Server> {
        Server::bind_with(addr, engine, ServerConfig::default())
    }

    /// Bind `addr` with explicit socket limits and timeouts, answering
    /// with an [`EngineHandler`] over `engine` under the default
    /// [`RequestLimits`] and no reloader. Other limits take
    /// [`Server::bind_handler`] with an [`EngineHandler`] of their own.
    ///
    /// # Errors
    /// Socket errors.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<QueryEngine>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let handler = Arc::new(EngineHandler::new(engine, RequestLimits::default(), None));
        Server::bind_handler(addr, handler, config)
    }

    /// Bind `addr` with an arbitrary [`LineHandler`] backend (the cluster
    /// router uses this to sit behind the same hardened socket layer as
    /// an engine-backed server).
    ///
    /// # Errors
    /// Socket errors.
    pub fn bind_handler<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn LineHandler>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_protocol(addr, Arc::new(handler), config)
    }

    /// Bind `addr` with any [`Protocol`] (the cluster's EHNP shard port
    /// uses this).
    ///
    /// # Errors
    /// Socket errors.
    pub fn bind_protocol<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn Protocol>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Ok(Server { listener: TcpListener::bind(addr)?, handler, config })
    }

    /// The bound address (reports the real port after binding port 0).
    ///
    /// # Errors
    /// Socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until the process exits (or a fatal accept error).
    ///
    /// # Errors
    /// Fatal accept errors.
    pub fn run(self) -> io::Result<()> {
        let mut handle = self.spawn()?;
        let result = match handle.accept.take() {
            Some(join) => {
                join.join().unwrap_or_else(|_| Err(io::Error::other("accept loop panicked")))
            }
            None => Ok(()),
        };
        handle.shutdown_impl();
        result
    }

    /// Start the accept loop and the connection worker pool on
    /// background threads; the returned handle stops them.
    ///
    /// # Errors
    /// Socket errors while reading the bound address or switching the
    /// listener to non-blocking mode.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            handler: self.handler,
            config: self.config,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let (tx, rx) = sync_channel::<TcpStream>(shared.config.max_connections.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..shared.config.conn_workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || conn_worker(&shared, &rx))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let listener = self.listener;
            std::thread::spawn(move || accept_loop(&listener, &shared, &tx))
        };
        Ok(ServerHandle { addr, shared, accept: Some(accept), workers: Some(workers) })
    }
}

/// Handle to a running server; stops it deterministically on
/// [`shutdown`](ServerHandle::shutdown) or drop.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<io::Result<()>>>,
    workers: Option<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("active", &self.active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Where the server is listening.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests (bounded by
    /// `drain_deadline`), force-close stragglers, and join every
    /// thread. Returns once the server is fully torn down.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop is non-blocking and polls the stop flag, so
        // it exits within one poll interval — no self-connect needed.
        // Its exit drops the queue's sender: idle workers wake, drop
        // any connection still queued unserved, and exit.
        if let Some(join) = self.accept.take() {
            let _ = join.join();
        }
        // Wake workers blocked reading from idle connections; the
        // write half stays open so in-flight responses still go out.
        for conn in lock(self.shared.conns.lock()).values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(DRAIN_POLL);
        }
        // Past the deadline: cut remaining sockets entirely.
        for conn in lock(self.shared.conns.lock()).values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(workers) = self.workers.take() {
            for w in workers {
                let _ = w.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || self.workers.is_some() {
            self.shutdown_impl();
        }
    }
}

/// Non-blocking accept loop: poll for sockets, shed past the cap, and
/// exit within one poll interval of the stop flag being set.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    tx: &SyncSender<TcpStream>,
) -> io::Result<()> {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => admit(shared, tx, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL_INTERVAL),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Admission control: configure the socket, then either enqueue the
/// connection for the worker pool or shed it with an `overloaded`
/// response.
fn admit(shared: &ServerShared, tx: &SyncSender<TcpStream>, stream: TcpStream) {
    // Accepted sockets must be blocking regardless of what the
    // non-blocking listener hands us (platform-dependent inheritance).
    let _ = stream.set_nonblocking(false);
    // One response per request: without TCP_NODELAY, Nagle holds a
    // small reply behind a client's delayed ACK (milliseconds per answer
    // on pipelined connections).
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
        shed(shared, &stream);
        return;
    }
    shared.active.fetch_add(1, Ordering::SeqCst);
    match tx.try_send(stream) {
        Ok(()) => {}
        Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shed(shared, &stream);
        }
    }
}

/// Tell an un-admittable client it is being load-shed, then drop it.
fn shed(shared: &ServerShared, stream: &TcpStream) {
    shared.handler.stats().overloads.fetch_add(1, Ordering::Relaxed);
    let _ = shared.handler.overloaded(stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One worker of the bounded pool: serve connections from the queue
/// until the accept loop exits and drops the sender. Blocks on the
/// queue between connections instead of polling.
fn conn_worker(shared: &ServerShared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // The queue guard drops with this statement, before the
        // connection is served.
        let next = lock(rx.lock()).recv();
        match next {
            Ok(stream) => handle_connection(shared, &stream),
            Err(_) => break,
        }
    }
}

/// Serve one admitted connection to completion, keeping the shutdown
/// registry, the active-connection count and the `timeouts` counter
/// consistent. Once shutdown has begun, a connection still in the queue
/// is dropped unserved.
fn handle_connection(shared: &ServerShared, stream: &TcpStream) {
    if !shared.stop.load(Ordering::SeqCst) {
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let registered = match stream.try_clone() {
            Ok(clone) => {
                lock(shared.conns.lock()).insert(conn_id, clone);
                true
            }
            Err(_) => false,
        };
        // A panicking protocol loses its connection, not the worker and
        // its admission slot.
        let served = catch_unwind(AssertUnwindSafe(|| {
            shared.handler.serve(stream, &shared.config, &shared.stop)
        }));
        if let Ok(Err(e)) = served {
            if is_timeout(&e) {
                shared.handler.stats().timeouts.fetch_add(1, Ordering::Relaxed);
            }
        }
        if registered {
            lock(shared.conns.lock()).remove(&conn_id);
        }
    }
    shared.active.fetch_sub(1, Ordering::SeqCst);
}

/// Outcome of one capped line read.
enum LineRead {
    /// A complete newline-terminated line (terminator stripped).
    Line(String),
    /// Clean end of stream (a trailing partial line is discarded).
    Eof,
    /// The line exceeded the byte cap before a newline arrived.
    TooLong,
}

/// Read one `\n`-terminated line of at most `max_bytes` bytes. Unlike
/// `BufRead::read_line`, an endless line cannot grow the buffer past
/// the cap — the caller is expected to error out and disconnect.
fn read_line_capped<R: BufRead>(reader: &mut R, max_bytes: usize) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (consumed, done) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                return Ok(LineRead::Eof);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if buf.len() + pos > max_bytes {
                        (pos + 1, Some(LineRead::TooLong))
                    } else {
                        buf.extend_from_slice(&chunk[..pos]);
                        (pos + 1, Some(LineRead::Line(String::new())))
                    }
                }
                None => {
                    if buf.len() + chunk.len() > max_bytes {
                        (chunk.len(), Some(LineRead::TooLong))
                    } else {
                        buf.extend_from_slice(chunk);
                        (chunk.len(), None)
                    }
                }
            }
        };
        reader.consume(consumed);
        match done {
            Some(LineRead::Line(_)) => {
                return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
            }
            Some(other) => return Ok(other),
            None => {}
        }
    }
}

/// Whether an IO error is the socket timeout firing (platforms report
/// it as either `WouldBlock` or `TimedOut`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Process one request line into one response document. Pure with respect
/// to IO — exercised directly by unit tests, and by the worker pool above.
/// Malformed or over-limit requests are answered with `"ok":false` and
/// counted in the engine's `rejected` stat.
pub fn handle_line(engine: &QueryEngine, limits: &RequestLimits, line: &str) -> Json {
    request::handle_line(&EngineBackend::new(engine, None), limits, line)
}

/// The standalone [`Backend`]: a [`QueryEngine`], with an optional
/// [`Reloader`] behind the `reload` op. Built per request line, it pins
/// one snapshot, so key resolution, `k` bounds, the search and the
/// neighbour labels of that line all read the same generation even when
/// a `reload` lands mid-line.
struct EngineBackend<'a> {
    engine: &'a QueryEngine,
    snap: Arc<Snapshot>,
    reloader: Option<&'a Reloader>,
}

impl<'a> EngineBackend<'a> {
    fn new(engine: &'a QueryEngine, reloader: Option<&'a Reloader>) -> Self {
        EngineBackend { engine, snap: engine.pin(), reloader }
    }
}

impl Backend for EngineBackend<'_> {
    type Node = NodeId;

    fn stats(&self) -> &EngineStats {
        self.engine.stats_raw()
    }

    fn num_nodes(&self) -> usize {
        self.snap.store.num_nodes()
    }

    fn resolve(&self, key: &str) -> Result<NodeId, String> {
        self.snap.store.resolve(key).map_err(|e| e.to_string())
    }

    fn knn(&self, query: KnnQuery<NodeId>, k: usize, explain: bool) -> Result<KnnAnswer, String> {
        let (engine, snap) = (self.engine, &self.snap);
        let result = match query {
            KnnQuery::Node(id) => engine.knn_node_on(snap, id, k, explain),
            KnnQuery::Vector(q) => engine.knn_vector_on(snap, &q, k, explain),
        }
        .map_err(|e| e.to_string())?;
        let neighbors =
            result.neighbors.iter().map(|nb| (nb.dist, nb.id.0, snap.store.label(nb.id))).collect();
        // `rank_agreement` is only meaningful when the brute-force
        // comparison actually ran; `null` otherwise (never a fabricated
        // 1.0).
        let explain = result.info.map(|info| {
            Json::obj([
                (
                    "probed_centroids",
                    Json::Arr(info.probed.iter().map(|&c| Json::Num(c as f64)).collect()),
                ),
                ("scanned", Json::Num(info.scanned as f64)),
                ("rank_agreement", result.agreement.map_or(Json::Null, Json::Num)),
            ])
        });
        Ok(KnnAnswer { neighbors: Arc::new(neighbors), cached: result.cached, explain })
    }

    fn score(&self, pairs: Vec<(NodeId, NodeId)>) -> Result<Vec<f64>, String> {
        self.engine.score_pairs_on(&self.snap, &pairs).map_err(|e| e.to_string())
    }

    fn stats_doc(&self) -> Json {
        let (index, store) = (&self.snap.index, &self.snap.store);
        let snap = self.engine.stats();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("role", Json::Str(snap.role.as_str().to_string())),
            ("shard_id", snap.shard_id.map_or(Json::Null, |s| Json::Num(s as f64))),
            ("index", Json::Str(index.kind().to_string())),
            ("nprobe", index.nprobe().map_or(Json::Null, |n| Json::Num(n as f64))),
            ("nodes", Json::Num(store.num_nodes() as f64)),
            ("dim", Json::Num(store.dim() as f64)),
            ("requests", Json::Num(snap.requests as f64)),
            ("cache_hits", Json::Num(snap.cache_hits as f64)),
            ("cache_misses", Json::Num(snap.cache_misses as f64)),
            ("rejected", Json::Num(snap.rejected as f64)),
            ("timeouts", Json::Num(snap.timeouts as f64)),
            ("overloads", Json::Num(snap.overloads as f64)),
            ("snapshot_version", Json::Num(snap.snapshot_version as f64)),
            ("reloads", Json::Num(snap.reloads as f64)),
            ("last_reload_unix", Json::Num(snap.last_reload_unix as f64)),
            ("mean_us", Json::Num(snap.mean_us)),
            ("p50_us", Json::Num(snap.p50_us as f64)),
            ("p95_us", Json::Num(snap.p95_us as f64)),
            ("p99_us", Json::Num(snap.p99_us as f64)),
            ("ops", op_counts_json(&snap.ops)),
        ])
    }

    /// Run the configured [`Reloader`] and hot-swap its snapshot into the
    /// engine. Queries on other connections keep being answered (by the
    /// old snapshot) for the whole duration — only the final pointer swap
    /// is synchronized.
    fn reload(&self) -> Result<Json, String> {
        let reloader = self.reloader.ok_or_else(|| bad_request("reload not configured"))?;
        let (store, index) = reloader().map_err(|e| e.to_string())?;
        let nodes = store.num_nodes();
        let dim = store.dim();
        let version = self.engine.swap_snapshot(store, index);
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("version", Json::Num(version.0 as f64)),
            ("nodes", Json::Num(nodes as f64)),
            ("dim", Json::Num(dim as f64)),
        ]))
    }
}

/// One-shot client: connect, send each request line, return one response
/// line per request. Used by `ehna query` and the integration tests.
/// Connect, read, and write are all bounded by a 10 s default timeout;
/// use [`query_lines_timeout`] to pick your own.
///
/// # Errors
/// Socket errors, timeouts, or a server that hangs up early.
pub fn query_lines<A: ToSocketAddrs>(addr: A, requests: &[String]) -> io::Result<Vec<String>> {
    query_lines_timeout(addr, requests, Duration::from_secs(10))
}

/// [`query_lines`] with an explicit per-operation timeout, so a stuck or
/// wedged server produces a clear error instead of blocking forever.
///
/// # Errors
/// Socket errors, a server that hangs up early, or `TimedOut` when the
/// server does not connect/respond within `timeout`.
pub fn query_lines_timeout<A: ToSocketAddrs>(
    addr: A,
    requests: &[String],
    timeout: Duration,
) -> io::Result<Vec<String>> {
    query_lines_detailed(addr, requests, timeout).map_err(io::Error::from)
}

/// How a [`query_lines_detailed`] call failed — and, crucially, *when*.
///
/// A replica that refuses the TCP handshake is **dead** (restart it, or
/// route around it permanently); one that accepts the connection and then
/// stalls is **slow** (maybe transiently overloaded — back off, retry
/// later). The cluster router's failover and circuit-breaking logic keys
/// off exactly this distinction, and `ehna query` reports it to humans.
#[derive(Debug)]
pub enum QueryError {
    /// The TCP connection could not be established at all: the server is
    /// unreachable (down, wrong address, refused).
    Connect(io::Error),
    /// The server accepted the connection but a request could not be
    /// written or answered within the timeout: the server is up but slow
    /// or wedged. `during` says which side stalled (`"accept the
    /// request"` for writes, `"respond"` for reads).
    Timeout {
        /// What the server failed to do in time.
        during: &'static str,
        /// The per-operation deadline that expired.
        timeout: Duration,
    },
    /// The server closed the connection before answering every request.
    Closed,
    /// Any other mid-stream IO failure (reset, broken pipe, ...).
    Io(io::Error),
}

impl QueryError {
    /// Whether the failure happened before the connection existed —
    /// i.e. the server looks dead rather than slow.
    pub fn is_connect(&self) -> bool {
        matches!(self, QueryError::Connect(_))
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Connect(e) => write!(f, "could not connect: {e}"),
            QueryError::Timeout { during, timeout } => {
                write!(f, "server did not {during} within {timeout:?} — is it stuck or overloaded?")
            }
            QueryError::Closed => write!(f, "server closed the connection"),
            QueryError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryError> for io::Error {
    /// Collapse back to the untyped `io::Error` surface (kinds and
    /// messages unchanged from the pre-typed API, so existing callers
    /// and tests see identical behavior).
    fn from(e: QueryError) -> io::Error {
        match e {
            QueryError::Connect(inner) | QueryError::Io(inner) => inner,
            QueryError::Timeout { .. } => io::Error::new(io::ErrorKind::TimedOut, e.to_string()),
            QueryError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
        }
    }
}

/// [`query_lines_timeout`] with a typed error that distinguishes a dead
/// server (connect failure) from a slow one (mid-stream timeout) — the
/// signal the router's failover needs, conflated by `io::Error` alone.
///
/// # Errors
/// See [`QueryError`].
pub fn query_lines_detailed<A: ToSocketAddrs>(
    addr: A,
    requests: &[String],
    timeout: Duration,
) -> Result<Vec<String>, QueryError> {
    let timeout = timeout.max(Duration::from_millis(1));
    let mut last_err: Option<io::Error> = None;
    let mut stream: Option<TcpStream> = None;
    for candidate in addr.to_socket_addrs().map_err(QueryError::Connect)? {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => last_err = Some(e),
        }
    }
    let stream = stream.ok_or_else(|| {
        QueryError::Connect(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to no candidates")
        }))
    })?;
    stream.set_read_timeout(Some(timeout)).map_err(QueryError::Io)?;
    stream.set_write_timeout(Some(timeout)).map_err(QueryError::Io)?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(QueryError::Io)?);
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(requests.len());
    for req in requests {
        writeln!(writer, "{req}").and_then(|()| writer.flush()).map_err(|e| {
            if is_timeout(&e) {
                QueryError::Timeout { during: "accept the request", timeout }
            } else {
                QueryError::Io(e)
            }
        })?;
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| {
            if is_timeout(&e) {
                QueryError::Timeout { during: "respond", timeout }
            } else {
                QueryError::Io(e)
            }
        })?;
        if n == 0 {
            return Err(QueryError::Closed);
        }
        responses.push(line.trim_end().to_string());
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::index::{BruteForceIndex, Neighbor, SearchInfo};
    use crate::store::EmbeddingStore;
    use ehna_tgraph::{NameMap, NodeEmbeddings};
    use std::io::Read;
    use std::sync::{OnceLock, Weak};

    fn engine() -> Arc<QueryEngine> {
        let emb = NodeEmbeddings::from_vec(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]);
        let mut names = NameMap::new();
        for n in ["a", "b", "c", "far"] {
            names.intern(n);
        }
        let store = Arc::new(EmbeddingStore::new(emb, Some(names)).unwrap());
        let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
        Arc::new(QueryEngine::new(store, index, EngineConfig::default()))
    }

    fn limits() -> RequestLimits {
        RequestLimits::default()
    }

    #[test]
    fn admitted_sockets_disable_nagle() {
        let shared = ServerShared {
            handler: Arc::new(EngineHandler::new(engine(), limits(), None)),
            config: ServerConfig::default(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(!stream.nodelay().unwrap(), "accepted sockets start with Nagle on");
        let (tx, rx) = sync_channel(1);
        admit(&shared, &tx, stream);
        assert!(rx.try_recv().unwrap().nodelay().unwrap());
    }

    #[test]
    fn shutdown_drops_queued_connections_unserved() {
        let drain_deadline = Duration::from_millis(500);
        let config = ServerConfig { conn_workers: 1, drain_deadline, ..ServerConfig::default() };
        let handle = Server::bind_with("127.0.0.1:0", engine(), config).unwrap().spawn().unwrap();
        let ping = |mut stream: &TcpStream| stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();

        // The only worker serves `idle` and then blocks reading it.
        let idle = TcpStream::connect(handle.addr()).unwrap();
        ping(&idle);
        let mut line = String::new();
        BufReader::new(&idle).read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");

        // Two more connections wait in the shared queue, requests sent.
        let queued: Vec<TcpStream> =
            (0..2).map(|_| TcpStream::connect(handle.addr()).unwrap()).collect();
        for q in &queued {
            ping(q);
            q.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        }
        let admitted = Instant::now();
        while handle.shared.active.load(Ordering::SeqCst) < 3 {
            assert!(admitted.elapsed() < Duration::from_secs(5), "queued conns never admitted");
            std::thread::sleep(POLL_INTERVAL);
        }

        let started = Instant::now();
        handle.shutdown();
        let elapsed = started.elapsed();
        assert!(elapsed < drain_deadline + Duration::from_secs(1), "shutdown took {elapsed:?}");
        for mut q in &queued {
            let mut rest = Vec::new();
            match q.read_to_end(&mut rest) {
                // Closed with the request unread: a reset is EOF too.
                Ok(_) => assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest)),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset, "{e}"),
            }
        }
    }

    #[test]
    fn knn_by_name_over_protocol() {
        let e = engine();
        let resp = handle_line(&e, &limits(), r#"{"op":"knn","node":"a","k":2}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let neighbors = resp.get("neighbors").and_then(Json::as_arr).unwrap();
        assert_eq!(neighbors.len(), 2);
        assert_eq!(neighbors[0].get("node").and_then(Json::as_str), Some("b"));
        assert_eq!(neighbors[0].get("dist").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn knn_by_vector_with_explain() {
        let e = engine();
        let resp =
            handle_line(&e, &limits(), r#"{"op":"knn","vector":[5,5],"k":1,"explain":true}"#);
        let neighbors = resp.get("neighbors").and_then(Json::as_arr).unwrap();
        assert_eq!(neighbors[0].get("node").and_then(Json::as_str), Some("far"));
        let explain = resp.get("explain").unwrap();
        assert_eq!(explain.get("rank_agreement").and_then(Json::as_f64), Some(1.0));
        assert!(explain.get("scanned").and_then(Json::as_usize).unwrap() > 0);
    }

    #[test]
    fn knn_validates_k_bounds() {
        let e = engine();
        // k = 0 and k > num_nodes are rejected, not silently served.
        for bad in [
            r#"{"op":"knn","node":"a","k":0}"#,
            r#"{"op":"knn","node":"a","k":5}"#, // store has 4 nodes
        ] {
            let resp = handle_line(&e, &limits(), bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "accepted {bad}");
            let msg = resp.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains("'k'"), "unhelpful error: {msg}");
        }
        // A tight max_k limit rejects an otherwise-valid k.
        let tight = RequestLimits { max_k: 1, ..RequestLimits::default() };
        let resp = handle_line(&e, &tight, r#"{"op":"knn","node":"a","k":2}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("limit"));
        // The default k clamps to the store size instead of erroring.
        let resp = handle_line(&e, &limits(), r#"{"op":"knn","node":"a"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn score_respects_max_pairs() {
        let e = engine();
        let tight = RequestLimits { max_pairs: 1, ..RequestLimits::default() };
        let resp = handle_line(&e, &tight, r#"{"op":"score","pairs":[["a","b"],["a","c"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("limit"));
        let resp = handle_line(&e, &tight, r#"{"op":"score","pairs":[["a","b"]]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn score_op_resolves_names_and_ids() {
        let e = engine();
        let resp = handle_line(&e, &limits(), r#"{"op":"score","pairs":[["a","b"],["0","far"]]}"#);
        let scores = resp.get("scores").and_then(Json::as_arr).unwrap();
        assert_eq!(scores[0].as_f64(), Some(1.0));
        assert_eq!(scores[1].as_f64(), Some(50.0));
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let e = engine();
        for bad in [
            "not json",
            r#"{"op":"warp"}"#,
            r#"{"op":"knn"}"#,
            r#"{"op":"knn","node":"nobody"}"#,
            r#"{"op":"knn","node":"a","vector":[1,2]}"#,
            r#"{"op":"score","pairs":[["a"]]}"#,
        ] {
            let resp = handle_line(&e, &limits(), bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "no error for {bad}");
            assert!(resp.get("error").is_some());
        }
        // Every rejected request is counted, and the engine still works.
        assert_eq!(e.stats().rejected, 6);
        let resp = handle_line(&e, &limits(), r#"{"op":"ping"}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn stats_op_reports_counters() {
        let e = engine();
        handle_line(&e, &limits(), r#"{"op":"knn","node":"a","k":1}"#);
        handle_line(&e, &limits(), r#"{"op":"knn","node":"a","k":1}"#);
        let resp = handle_line(&e, &limits(), r#"{"op":"stats"}"#);
        assert_eq!(resp.get("index").and_then(Json::as_str), Some("brute"));
        assert_eq!(resp.get("nprobe"), Some(&Json::Null), "brute probes nothing");
        assert_eq!(resp.get("nodes").and_then(Json::as_usize), Some(4));
        assert_eq!(resp.get("requests").and_then(Json::as_usize), Some(2));
        assert_eq!(resp.get("cache_hits").and_then(Json::as_usize), Some(1));
        assert_eq!(resp.get("rejected").and_then(Json::as_usize), Some(0));
        assert_eq!(resp.get("overloads").and_then(Json::as_usize), Some(0));
        assert_eq!(resp.get("timeouts").and_then(Json::as_usize), Some(0));
    }

    #[test]
    fn stats_op_reports_role_and_per_op_counts() {
        let e = engine();
        handle_line(&e, &limits(), r#"{"op":"ping"}"#);
        handle_line(&e, &limits(), r#"{"op":"knn","node":"a","k":1}"#);
        let resp = handle_line(&e, &limits(), r#"{"op":"stats"}"#);
        // Identity defaults: a plain engine is a standalone node.
        assert_eq!(resp.get("role").and_then(Json::as_str), Some("standalone"));
        assert_eq!(resp.get("shard_id"), Some(&Json::Null));
        let ops = resp.get("ops").expect("stats carries per-op counters");
        assert_eq!(ops.get("ping").and_then(Json::as_usize), Some(1));
        assert_eq!(ops.get("knn").and_then(Json::as_usize), Some(1));
        assert_eq!(ops.get("stats").and_then(Json::as_usize), Some(1));
        assert_eq!(ops.get("score").and_then(Json::as_usize), Some(0));
        // Declared identity shows up on the wire.
        e.stats_raw().set_identity(crate::stats::Role::Shard, Some(1));
        let resp = handle_line(&e, &limits(), r#"{"op":"stats"}"#);
        assert_eq!(resp.get("role").and_then(Json::as_str), Some("shard"));
        assert_eq!(resp.get("shard_id").and_then(Json::as_usize), Some(1));
    }

    /// Brute force over one store that, on its first search, hot-swaps
    /// `next` into the engine: a reload landing in the middle of a line.
    struct SwapOnSearch {
        inner: BruteForceIndex,
        engine: Arc<OnceLock<Weak<QueryEngine>>>,
        next: Mutex<Option<Arc<EmbeddingStore>>>,
    }

    impl KnnIndex for SwapOnSearch {
        fn search_explained(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchInfo) {
            if let Some(store) = lock(self.next.lock()).take() {
                let engine = self.engine.get().and_then(Weak::upgrade).expect("engine is live");
                engine.swap_snapshot(Arc::clone(&store), Box::new(BruteForceIndex::new(store)));
            }
            self.inner.search_explained(query, k)
        }

        fn kind(&self) -> &'static str {
            "brute"
        }
    }

    #[test]
    fn a_line_reads_one_snapshot_when_a_reload_lands_mid_search() {
        let named = |names: [&str; 4]| {
            let emb = NodeEmbeddings::from_vec(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]);
            let mut map = NameMap::new();
            for n in names {
                map.intern(n);
            }
            Arc::new(EmbeddingStore::new(emb, Some(map)).unwrap())
        };
        // Same ids and rows, different names.
        let (first, second) = (named(["a", "b", "c", "far"]), named(["A", "B", "C", "FAR"]));
        let slot = Arc::new(OnceLock::new());
        let index = SwapOnSearch {
            inner: BruteForceIndex::new(Arc::clone(&first)),
            engine: Arc::clone(&slot),
            next: Mutex::new(Some(second)),
        };
        let e = Arc::new(QueryEngine::new(first, Box::new(index), EngineConfig::default()));
        assert!(slot.set(Arc::downgrade(&e)).is_ok());
        let resp = handle_line(&e, &limits(), r#"{"op":"knn","node":"a","k":2}"#);
        assert_eq!(e.snapshot_version().0, 2, "the search swapped in the second store");
        let labels: Vec<&str> = resp
            .get("neighbors")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|nb| nb.get("node").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["b", "c"], "labels must come from the searched store: {resp}");
    }

    #[test]
    fn batch_op_runs_sub_requests_in_order() {
        let e = engine();
        let resp = handle_line(
            &e,
            &limits(),
            r#"{"op":"batch","requests":[{"op":"ping"},{"op":"knn","node":"a","k":2},{"op":"score","pairs":[["a","b"]]}]}"#,
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let subs = resp.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].get("pong"), Some(&Json::Bool(true)));
        let neighbors = subs[1].get("neighbors").and_then(Json::as_arr).unwrap();
        assert_eq!(neighbors[0].get("node").and_then(Json::as_str), Some("b"));
        let scores = subs[2].get("scores").and_then(Json::as_arr).unwrap();
        assert_eq!(scores[0].as_f64(), Some(1.0));
    }

    #[test]
    fn batch_op_reports_sub_failures_in_place() {
        let e = engine();
        let resp = handle_line(
            &e,
            &limits(),
            r#"{"op":"batch","requests":[{"op":"knn","node":"nobody"},{"op":"ping"},{"op":"reload"},{"op":"batch","requests":[]}]}"#,
        );
        // The envelope succeeds; the bad sub-requests fail individually.
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let subs = resp.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(subs[0].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(subs[1].get("ok"), Some(&Json::Bool(true)));
        for nested in [&subs[2], &subs[3]] {
            assert_eq!(nested.get("ok"), Some(&Json::Bool(false)));
            let msg = nested.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains("batch"), "unhelpful error: {msg}");
        }
        // Over-limit envelopes are refused outright.
        let tight = RequestLimits { max_batch: 1, ..RequestLimits::default() };
        let resp =
            handle_line(&e, &tight, r#"{"op":"batch","requests":[{"op":"ping"},{"op":"ping"}]}"#);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp.get("error").and_then(Json::as_str).unwrap().contains("limit"));
    }

    #[test]
    fn capped_line_reader_bounds_memory() {
        use std::io::Cursor;
        let mut r = Cursor::new(b"short\n".to_vec());
        match read_line_capped(&mut r, 16).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "short"),
            _ => panic!("expected a line"),
        }
        // Over-long line trips the cap even when the newline never comes.
        let mut r = Cursor::new(vec![b'x'; 64]);
        assert!(matches!(read_line_capped(&mut r, 16).unwrap(), LineRead::TooLong));
        // A partial trailing line is EOF, not a request.
        let mut r = Cursor::new(b"partial".to_vec());
        assert!(matches!(read_line_capped(&mut r, 1024).unwrap(), LineRead::Eof));
        // Exactly at the cap is fine.
        let mut r = Cursor::new(b"abcd\n".to_vec());
        assert!(matches!(read_line_capped(&mut r, 4).unwrap(), LineRead::Line(_)));
    }

    #[test]
    fn tcp_roundtrip_and_shutdown() {
        let e = engine();
        let server = Server::bind("127.0.0.1:0", Arc::clone(&e)).unwrap();
        let handle = server.spawn().unwrap();
        let responses = query_lines(
            handle.addr(),
            &[r#"{"op":"ping"}"#.to_string(), r#"{"op":"knn","node":"b","k":2}"#.to_string()],
        )
        .unwrap();
        assert_eq!(responses.len(), 2);
        let pong = Json::parse(&responses[0]).unwrap();
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        let knn = Json::parse(&responses[1]).unwrap();
        assert_eq!(knn.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown(); // must not hang
    }

    #[test]
    fn query_lines_times_out_on_unresponsive_server() {
        // A raw listener that accepts but never responds.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let _conn = listener.accept();
            std::thread::sleep(Duration::from_millis(400));
        });
        let err = query_lines_timeout(
            addr,
            &[r#"{"op":"ping"}"#.to_string()],
            Duration::from_millis(100),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("respond"), "unclear error: {err}");
        sink.join().unwrap();
    }

    #[test]
    fn detailed_client_errors_distinguish_dead_from_slow() {
        // Dead server: nothing is listening, so the failure is Connect.
        let unused = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = unused.local_addr().unwrap();
        drop(unused);
        let err = query_lines_detailed(
            dead_addr,
            &[r#"{"op":"ping"}"#.to_string()],
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert!(err.is_connect(), "expected Connect, got {err:?}");
        assert!(err.to_string().contains("connect"), "unclear error: {err}");

        // Slow server: accepts, never answers — a mid-stream Timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let _conn = listener.accept();
            std::thread::sleep(Duration::from_millis(400));
        });
        let err = query_lines_detailed(
            addr,
            &[r#"{"op":"ping"}"#.to_string()],
            Duration::from_millis(100),
        )
        .unwrap_err();
        assert!(
            matches!(err, QueryError::Timeout { during: "respond", .. }),
            "expected a respond timeout, got {err:?}"
        );
        assert!(!err.is_connect());
        sink.join().unwrap();
    }

    #[test]
    fn handler_backed_server_serves_and_counts() {
        struct Echo {
            stats: EngineStats,
        }
        impl LineHandler for Echo {
            fn handle_line(&self, line: &str) -> Json {
                Json::obj([("ok", Json::Bool(true)), ("echo", Json::Str(line.to_string()))])
            }
            fn stats(&self) -> &EngineStats {
                &self.stats
            }
        }
        let handler = Arc::new(Echo { stats: EngineStats::default() });
        let server =
            Server::bind_handler("127.0.0.1:0", Arc::clone(&handler) as _, ServerConfig::default())
                .unwrap();
        let handle = server.spawn().unwrap();
        let responses = query_lines(handle.addr(), &["hello".to_string()]).unwrap();
        let resp = Json::parse(&responses[0]).unwrap();
        assert_eq!(resp.get("echo").and_then(Json::as_str), Some("hello"));
        handle.shutdown();
    }
}
