//! The scatter-gather router — a sharded cluster's JSON front door.
//!
//! [`Router`] implements [`ehna_serve::LineHandler`], so it plugs into
//! the hardened socket front end from `ehna-serve` (admission control,
//! bounded worker pool, line caps, socket timeouts, deterministic
//! shutdown) via [`ehna_serve::Server::bind_handler`] — clients cannot
//! tell a router from a standalone server except by asking `stats`.
//!
//! The router parses no request JSON and checks no request limits: the
//! shared request layer ([`ehna_serve::request`]) does both, for the
//! standalone server too, and renders every envelope. The router is that
//! layer's cluster [`Backend`]: key resolution by scatter or owner
//! arithmetic, knn by scatter and merge behind the version-keyed caches,
//! scores from resolved rows, the cluster `stats` document and the
//! rolling `reload`.
//!
//! ## Exactness
//!
//! Every `knn` is scattered to all shards; each shard returns its local
//! top-`k'` ascending by `(distance, local id)`. Because the planner's
//! round-robin partition makes the local→global id map monotone within a
//! shard, merging the per-shard lists by `(distance, global id)` applies
//! *exactly* the single-node tie-break `(dist, NodeId)` — the sharded
//! top-k is identical, ids and ordering, to the unsharded one (the
//! router over-fetches one extra when it must exclude the query node,
//! which keeps every candidate list sufficient). Distances are computed
//! by the shards with the same f32-subtract/f64-accumulate loop as the
//! single-node store and travel as exact f64 bit patterns.
//!
//! ## Scatter pipelining
//!
//! A scattered call does not spawn a thread per shard. Phase one walks
//! the shards and puts every shard's request on the wire (one
//! [`MuxClient::begin`] per shard — the multiplexed connection routes
//! replies by request id); phase two collects the replies in shard
//! order against one *shared* deadline, since every shard has been
//! working concurrently from the moment its frame was written. Only
//! when a picked replica fails does the call drop to a synchronous
//! failover pass across that shard's remaining replicas.
//!
//! ## Response cache
//!
//! Node-keyed, non-explain `knn` answers are cached router-side, keyed
//! by `(global id, k, per-replica snapshot-version vector)` — the same
//! id-keyed discipline as the standalone engine's hot-node cache, so
//! the `"cached"` flag behaves identically (aliased keys like `"3"` vs
//! `3` hit the same entry). Key resolutions are cached the same way.
//! Because the version vector is part of the key, a rolling `reload`
//! invalidates by construction; replicas piggyback their snapshot
//! version on every probe `Pong`, so an out-of-band reload (an operator
//! hitting a shard directly) is picked up within one probe interval.
//!
//! ## Failure handling
//!
//! Each shard runs one or more replicas. The scatter picks a replica by
//! power-of-two-choices among the preferred (healthy, breaker closed)
//! set — round-robin supplies two candidates, the one with fewer calls
//! in flight wins — so a replica that is slow-but-alive sheds load
//! instead of queueing it. On error or timeout the call fails over to
//! the next replica. [`RouterConfig::breaker_threshold`] consecutive
//! failures open a replica's circuit breaker for
//! [`RouterConfig::breaker_cooldown`], taking it out of the preferred
//! set so a sick replica stops eating latency budget. A background
//! probe pings every replica each [`RouterConfig::probe_interval`],
//! concurrently and under the short dedicated
//! [`RouterConfig::probe_timeout`] (a tar-pit replica must not stretch
//! the probe round and delay everyone else's recovery) — probes bypass
//! the breaker (they *are* the recovery path) and a successful probe
//! closes it.

use crate::client::{CallError, MuxClient, PendingReply};
use crate::manifest::{global_of, owner_of, ClusterManifest};
use crate::proto::{Request, Response};
use crate::ClusterError;
use ehna_serve::cache::LruCache;
use ehna_serve::request::{self, Backend, Hit, KnnAnswer, KnnQuery};
use ehna_serve::{
    lock, op_counts_json, EngineStats, Json, LineHandler, RequestLimits, Role, ServeError,
};
use ehna_tgraph::quant::sq_dist_f64;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the router's shard fan-out and failure detection.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-shard budget for one scattered call (after this the call
    /// fails over to the next replica).
    pub shard_timeout: Duration,
    /// TCP connect budget per replica.
    pub connect_timeout: Duration,
    /// How often the background probe pings every replica; zero disables
    /// probing (breaker cooldown then becomes the only recovery path).
    pub probe_interval: Duration,
    /// Dedicated budget for one health-probe ping, deliberately much
    /// shorter than `shard_timeout`: a probe answers "is this replica
    /// responsive right now", so waiting a full query budget on it only
    /// delays the rest of the probe round.
    pub probe_timeout: Duration,
    /// Consecutive failures that open a replica's circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker keeps a replica out of the preferred
    /// set before it is retried (half-open).
    pub breaker_cooldown: Duration,
    /// Per-replica budget for a rolling `reload` (snapshot loads are
    /// much slower than queries).
    pub reload_timeout: Duration,
    /// Capacity of each router-side response cache (the knn answer
    /// cache and the key-resolution cache); 0 disables caching. Entries
    /// are keyed by the per-replica snapshot-version vector, so a
    /// reload invalidates by construction rather than by flush.
    pub cache_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shard_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(1),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
            reload_timeout: Duration::from_secs(60),
            cache_capacity: 1024,
        }
    }
}

/// Point-in-time health of one replica, as reported by `stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// The replica's EHNP address.
    pub addr: SocketAddr,
    /// Whether the last contact succeeded.
    pub healthy: bool,
    /// Whether the circuit breaker is currently open.
    pub breaker_open: bool,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// Whether a live multiplexed connection is established.
    pub connected: bool,
    /// Calls currently in flight to this replica (the load-balancing
    /// signal for power-of-two-choices).
    pub in_flight: usize,
    /// Last snapshot version this replica reported (via probe `Pong` or
    /// `Reloaded`); 0 means not yet known.
    pub snapshot_version: u64,
}

/// Decrements a replica's in-flight counter on drop, so the count stays
/// honest across every early return and failure path.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

struct Replica {
    addr: SocketAddr,
    conn: Mutex<Option<Arc<MuxClient>>>,
    /// Serializes redials without blocking `conn`: exactly one caller
    /// dials while the rest queue here, and nobody holds `conn` across
    /// the (up to `connect_timeout`-long) dial.
    dial: Mutex<()>,
    failures: AtomicU32,
    open_until: Mutex<Option<Instant>>,
    healthy: AtomicBool,
    in_flight: AtomicUsize,
    /// Last snapshot version reported by this replica (0 = unknown).
    /// Feeds the router cache's version vector.
    last_version: AtomicU64,
}

impl Replica {
    fn new(addr: SocketAddr) -> Replica {
        Replica {
            addr,
            conn: Mutex::new(None),
            dial: Mutex::new(()),
            failures: AtomicU32::new(0),
            open_until: Mutex::new(None),
            // Optimistic start: a replica has to fail to be demoted.
            healthy: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
            last_version: AtomicU64::new(0),
        }
    }

    /// Count one call against this replica until the guard drops.
    fn track(&self) -> InFlightGuard<'_> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard(&self.in_flight)
    }

    /// Harvest the snapshot version piggybacked on probe and reload
    /// responses. Query responses don't carry one, so a version learned
    /// here can lag an out-of-band reload by up to one probe interval —
    /// the documented staleness bound of the router cache.
    fn note_response(&self, resp: &Response) {
        match resp {
            Response::Pong { version } | Response::Reloaded { version, .. } => {
                self.last_version.store(*version, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn breaker_open(&self) -> bool {
        matches!(*lock(self.open_until.lock()), Some(until) if Instant::now() < until)
    }

    fn preferred(&self) -> bool {
        self.healthy.load(Ordering::Relaxed) && !self.breaker_open()
    }

    fn record_success(&self) {
        self.failures.store(0, Ordering::Relaxed);
        *lock(self.open_until.lock()) = None;
        self.healthy.store(true, Ordering::Relaxed);
    }

    fn record_failure(&self, config: &RouterConfig) {
        let f = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
        if f >= config.breaker_threshold {
            *lock(self.open_until.lock()) = Some(Instant::now() + config.breaker_cooldown);
        }
        self.healthy.store(false, Ordering::Relaxed);
    }

    /// The live connection, dialing a fresh one if needed. The dial
    /// happens *outside* the `conn` lock, so a worker redialing a dead
    /// replica never blocks concurrent calls (or `status`) that only
    /// need to read the slot; the separate `dial` mutex preserves the
    /// no-thundering-redial property — one caller dials, the rest queue
    /// behind it and pick up the freshly installed connection.
    fn client(&self, config: &RouterConfig) -> Result<Arc<MuxClient>, String> {
        if let Some(c) = lock(self.conn.lock()).as_ref() {
            if !c.is_dead() {
                return Ok(Arc::clone(c));
            }
        }
        let _dialing = lock(self.dial.lock());
        // Whoever held `dial` before us may have just installed a live
        // connection — take it instead of dialing again.
        if let Some(c) = lock(self.conn.lock()).as_ref() {
            if !c.is_dead() {
                return Ok(Arc::clone(c));
            }
        }
        match MuxClient::connect(self.addr, config.connect_timeout, config.shard_timeout) {
            Ok(c) => {
                let c = Arc::new(c);
                *lock(self.conn.lock()) = Some(Arc::clone(&c));
                Ok(c)
            }
            Err(e) => {
                *lock(self.conn.lock()) = None;
                Err(format!("connect {}: {e}", self.addr))
            }
        }
    }

    /// Drop the cached connection iff it is still `client` (a concurrent
    /// caller may have already installed a fresh one).
    fn drop_conn_if(&self, client: &Arc<MuxClient>) {
        let mut guard = lock(self.conn.lock());
        if guard.as_ref().is_some_and(|c| Arc::ptr_eq(c, client)) {
            *guard = None;
        }
    }

    /// Put `req` on the wire toward this replica without waiting for the
    /// reply — the write half of a pipelined scatter. Failure accounting
    /// mirrors [`Self::call`]; success is only recorded when the reply
    /// lands in [`Self::finish_call`].
    fn begin_call(
        &self,
        req: &Request,
        config: &RouterConfig,
    ) -> Result<(Arc<MuxClient>, PendingReply), String> {
        let client = match self.client(config) {
            Ok(c) => c,
            Err(e) => {
                self.record_failure(config);
                return Err(e);
            }
        };
        match client.begin(req) {
            Ok(reply) => Ok((client, reply)),
            Err(CallError::Dead(msg)) => {
                self.drop_conn_if(&client);
                self.record_failure(config);
                Err(format!("{}: {msg}", self.addr))
            }
            // `begin` never waits, but keep the arm total.
            Err(CallError::Timeout(t)) => {
                self.record_failure(config);
                Err(format!("{}: no answer within {t:?}", self.addr))
            }
        }
    }

    /// Collect a reply begun with [`Self::begin_call`], waiting no
    /// longer than the shared scatter `deadline`.
    fn finish_call(
        &self,
        client: &Arc<MuxClient>,
        reply: PendingReply,
        deadline: Instant,
        config: &RouterConfig,
    ) -> Result<Response, String> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match reply.wait(remaining) {
            Ok(resp) => {
                self.record_success();
                self.note_response(&resp);
                Ok(resp)
            }
            Err(CallError::Dead(msg)) => {
                self.drop_conn_if(client);
                self.record_failure(config);
                Err(format!("{}: {msg}", self.addr))
            }
            Err(CallError::Timeout(t)) => {
                self.record_failure(config);
                Err(format!("{}: no answer within {t:?}", self.addr))
            }
        }
    }

    fn call(
        &self,
        req: &Request,
        timeout: Duration,
        config: &RouterConfig,
    ) -> Result<Response, String> {
        let _load = self.track();
        let (client, reply) = self.begin_call(req, config)?;
        self.finish_call(&client, reply, Instant::now() + timeout, config)
    }

    fn status(&self) -> ReplicaStatus {
        ReplicaStatus {
            addr: self.addr,
            healthy: self.healthy.load(Ordering::Relaxed),
            breaker_open: self.breaker_open(),
            consecutive_failures: self.failures.load(Ordering::Relaxed),
            connected: lock(self.conn.lock()).as_ref().is_some_and(|c| !c.is_dead()),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            snapshot_version: self.last_version.load(Ordering::Relaxed),
        }
    }
}

struct ShardSet {
    replicas: Vec<Arc<Replica>>,
    rr: AtomicUsize,
}

impl ShardSet {
    /// Pick the replica for a scattered call: power-of-two-choices among
    /// the preferred (healthy, breaker closed) replicas. Round-robin
    /// supplies the candidate order — so load still rotates when counts
    /// tie — and the candidate with fewer calls in flight wins, which
    /// steers new work away from a slow-but-alive replica instead of
    /// queueing behind it. Falls back to plain round-robin over all
    /// replicas when none is preferred (the failover pass will sort out
    /// which, if any, still answers).
    fn pick(&self) -> usize {
        let n = self.replicas.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        let mut first = None;
        let mut second = None;
        for step in 0..n {
            let idx = (start + step) % n;
            if self.replicas[idx].preferred() {
                if first.is_none() {
                    first = Some(idx);
                } else {
                    second = Some(idx);
                    break;
                }
            }
        }
        match (first, second) {
            (None, _) => start % n,
            (Some(a), None) => a,
            (Some(a), Some(b)) => {
                let load = |i: usize| self.replicas[i].in_flight.load(Ordering::Relaxed);
                // Ties go to `a`, the round-robin-first candidate.
                if load(b) < load(a) {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// Cache key versions: every replica's last known snapshot version, in
/// (shard, replica) order. Any reload anywhere changes the vector and
/// so orphans every pre-reload cache entry.
type VersionVec = Vec<u64>;

/// A cached final knn answer: `(distance, global id, name)` per
/// neighbor, already merged, excluded, and truncated to `k`.
type CachedKnn = Arc<Vec<Hit>>;

struct Inner {
    manifest: ClusterManifest,
    shards: Vec<ShardSet>,
    stats: EngineStats,
    limits: RequestLimits,
    config: RouterConfig,
    stop: AtomicBool,
    /// Final (merged, excluded, truncated) knn answers for node-keyed,
    /// non-explain queries — the same id-keyed discipline as the
    /// standalone engine's hot-node cache, so the client-visible
    /// `"cached"` flag patterns match byte for byte.
    knn_cache: Mutex<LruCache<(u32, usize, VersionVec), CachedKnn>>,
    /// Successful key resolutions (raw client key → global id + row).
    /// Invisible in responses; a warm hit skips the resolve scatter.
    #[allow(clippy::type_complexity)]
    resolve_cache: Mutex<LruCache<(String, VersionVec), (u32, Vec<f32>)>>,
}

/// The scatter-gather front door of a sharded cluster. See the module
/// docs for semantics; build with [`Router::new`] and serve it via
/// [`ehna_serve::Server::bind_handler`].
pub struct Router {
    inner: Arc<Inner>,
    probe: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("num_shards", &self.inner.manifest.num_shards)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Build a router over `manifest`, with `replicas[s]` listing the
    /// EHNP addresses serving shard `s` and `limits` enforced on every
    /// client request. Starts the health-probe thread unless
    /// `config.probe_interval` is zero.
    ///
    /// # Errors
    /// [`ClusterError::Plan`] when the replica map does not cover every
    /// shard exactly once.
    pub fn new(
        manifest: ClusterManifest,
        replicas: Vec<Vec<SocketAddr>>,
        limits: RequestLimits,
        config: RouterConfig,
    ) -> Result<Router, ClusterError> {
        if replicas.len() != manifest.num_shards as usize {
            return Err(ClusterError::Plan(format!(
                "manifest has {} shards but {} replica sets were given",
                manifest.num_shards,
                replicas.len()
            )));
        }
        if let Some(empty) = replicas.iter().position(Vec::is_empty) {
            return Err(ClusterError::Plan(format!("shard {empty} has no replicas")));
        }
        let shards = replicas
            .into_iter()
            .map(|addrs| ShardSet {
                replicas: addrs.into_iter().map(|a| Arc::new(Replica::new(a))).collect(),
                rr: AtomicUsize::new(0),
            })
            .collect();
        let cache_capacity = config.cache_capacity;
        let inner = Arc::new(Inner {
            manifest,
            shards,
            stats: EngineStats::default(),
            limits,
            config,
            stop: AtomicBool::new(false),
            knn_cache: Mutex::new(LruCache::new(cache_capacity)),
            resolve_cache: Mutex::new(LruCache::new(cache_capacity)),
        });
        inner.stats.set_identity(Role::Router, None);
        let probe = if inner.config.probe_interval.is_zero() {
            None
        } else {
            let probe_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("ehna-router-probe".into())
                    .spawn(move || probe_loop(&probe_inner))
                    .expect("spawn router probe"),
            )
        };
        Ok(Router { inner, probe: Mutex::new(probe) })
    }

    /// Health of every replica, by shard — what `stats` reports, exposed
    /// directly for tests and embedders.
    pub fn replica_status(&self) -> Vec<Vec<ReplicaStatus>> {
        self.inner.shards.iter().map(|s| s.replicas.iter().map(|r| r.status()).collect()).collect()
    }

    /// The manifest this router routes by.
    pub fn manifest(&self) -> &ClusterManifest {
        &self.inner.manifest
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = lock(self.probe.lock()).take() {
            let _ = h.join();
        }
    }
}

impl LineHandler for Router {
    fn handle_line(&self, line: &str) -> Json {
        request::handle_line(&*self.inner, &self.inner.limits, line)
    }

    fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }
}

fn probe_loop(inner: &Arc<Inner>) {
    let poll = Duration::from_millis(20);
    loop {
        let mut slept = Duration::ZERO;
        while slept < inner.config.probe_interval {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(poll);
            slept += poll;
        }
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        // Fan the round out: every replica is pinged concurrently under
        // the short dedicated probe timeout, so one tar-pit replica
        // cannot stretch the round and stall a recovered peer's
        // breaker-close (the recovery path IS this loop).
        std::thread::scope(|scope| {
            for set in &inner.shards {
                for replica in &set.replicas {
                    let config = &inner.config;
                    scope.spawn(move || {
                        // Probes bypass the breaker on purpose: a
                        // successful ping is what closes it again.
                        let _ = replica.call(&Request::Ping, config.probe_timeout, config);
                    });
                }
            }
        });
    }
}

impl Inner {
    /// One call to shard `shard`, failing over across its replicas:
    /// round-robin start, preferred (healthy, breaker closed) replicas
    /// first, everything else as a second pass.
    fn call_shard(
        &self,
        shard: usize,
        req: &Request,
        timeout: Duration,
    ) -> Result<Response, String> {
        let n = self.shards[shard].replicas.len();
        self.failover(shard, req, timeout, vec![false; n], String::from("no replicas"))
    }

    /// The synchronous failover pass: try every not-yet-`tried` replica
    /// of `shard` (preferred first), carrying `last_err` from any prior
    /// attempt so a fully-failed shard reports its real last error.
    fn failover(
        &self,
        shard: usize,
        req: &Request,
        timeout: Duration,
        mut tried: Vec<bool>,
        mut last_err: String,
    ) -> Result<Response, String> {
        let set = &self.shards[shard];
        let n = set.replicas.len();
        let start = set.rr.fetch_add(1, Ordering::Relaxed) % n;
        for pass in 0..2 {
            for step in 0..n {
                let idx = (start + step) % n;
                if tried[idx] {
                    continue;
                }
                let replica = &set.replicas[idx];
                if pass == 0 && !replica.preferred() {
                    continue;
                }
                tried[idx] = true;
                match replica.call(req, timeout, &self.config) {
                    // The shard answered; this is a request-level error,
                    // not a replica failure. It crosses the router
                    // *verbatim* — the module promises error strings
                    // matching the standalone server word for word, and
                    // a "shard N:" prefix would leak topology into the
                    // client-visible surface.
                    Ok(Response::Error(msg)) => return Err(msg),
                    Ok(resp) => return Ok(resp),
                    Err(e) => last_err = e,
                }
            }
        }
        // Availability errors are the router's own and DO name the
        // shard: the client needs to know which partition went dark.
        Err(format!("shard {shard} unavailable: {last_err}"))
    }

    /// Scatter `req` to every shard; shard `i`'s result lands at index
    /// `i`. No thread is spawned: phase one picks a replica per shard
    /// (power-of-two-choices) and writes every request before reading
    /// any reply; phase two gathers in shard order against one shared
    /// deadline, since every reply has been racing toward us since its
    /// write. Only a failed pick drops to the synchronous [`failover`]
    /// pass (with a fresh per-shard timeout, like a retry always had).
    ///
    /// [`failover`]: Self::failover
    fn scatter(&self, req: &Request, timeout: Duration) -> Vec<Result<Response, String>> {
        struct Begun<'a> {
            replica: &'a Replica,
            client: Arc<MuxClient>,
            reply: PendingReply,
            tried: Vec<bool>,
            _load: InFlightGuard<'a>,
        }
        let mut begun: Vec<Result<Begun<'_>, (Vec<bool>, String)>> =
            Vec::with_capacity(self.shards.len());
        for set in &self.shards {
            let idx = set.pick();
            let replica = set.replicas[idx].as_ref();
            let mut tried = vec![false; set.replicas.len()];
            tried[idx] = true;
            let load = replica.track();
            match replica.begin_call(req, &self.config) {
                Ok((client, reply)) => {
                    begun.push(Ok(Begun { replica, client, reply, tried, _load: load }));
                }
                Err(e) => begun.push(Err((tried, e))),
            }
        }
        let deadline = Instant::now() + timeout;
        let mut results = Vec::with_capacity(self.shards.len());
        for (shard, b) in begun.into_iter().enumerate() {
            let (tried, last_err) = match b {
                Ok(b) => {
                    match b.replica.finish_call(&b.client, b.reply, deadline, &self.config) {
                        // Request-level errors cross verbatim, exactly
                        // as in the failover path.
                        Ok(Response::Error(msg)) => {
                            results.push(Err(msg));
                            continue;
                        }
                        Ok(resp) => {
                            results.push(Ok(resp));
                            continue;
                        }
                        Err(e) => (b.tried, e),
                    }
                }
                Err(failed) => failed,
            };
            results.push(self.failover(shard, req, timeout, tried, last_err));
        }
        results
    }

    /// Every replica's last known snapshot version, in (shard, replica)
    /// order — the freshness component of every cache key. Taken once
    /// per key resolution; the [`Resolved`] node carries it into its knn
    /// cache lookup, so both caches see the same generation.
    fn version_vec(&self) -> VersionVec {
        self.shards
            .iter()
            .flat_map(|s| s.replicas.iter().map(|r| r.last_version.load(Ordering::Relaxed)))
            .collect()
    }

    /// Resolve a client-supplied node key to `(global id, row)`,
    /// preserving the standalone resolution order: name-map lookup first
    /// (scattered, since any shard may own the name), then the decimal
    /// global-id fallback against the key's owner shard.
    fn resolve_global(&self, key: &str) -> Result<(u32, Vec<f32>), String> {
        let results =
            self.scatter(&Request::Resolve { key: key.to_string() }, self.config.shard_timeout);
        let mut shard_err = None;
        for (s, result) in results.iter().enumerate() {
            match result {
                Ok(Response::Resolved { hit: Some((local, _label, row)) }) => {
                    return Ok((
                        global_of(s as u32, *local, self.manifest.num_shards),
                        row.clone(),
                    ));
                }
                Ok(_) => {}
                Err(e) => shard_err = Some(e.clone()),
            }
        }
        if let Some(e) = shard_err {
            // An unreachable shard might own this name; guessing "not
            // found" would silently change answers.
            return Err(e);
        }
        // Canonical decimal only — the same parser as the standalone
        // store's fallback. Accepting "+3"/"007" here would let distinct
        // key strings alias one node and seed duplicate entries in the
        // version-keyed resolve/knn caches (and diverge from standalone
        // answers, which reject those spellings).
        if let Some(global) = ehna_serve::canonical_node_id(key) {
            if (global as u64) < self.manifest.total_nodes {
                let (shard, local) = owner_of(global, self.manifest.num_shards);
                return match self.call_shard(
                    shard as usize,
                    &Request::GetRow { local },
                    self.config.shard_timeout,
                )? {
                    Response::Row { row, .. } => Ok((global, row)),
                    other => Err(format!("shard {shard}: unexpected response {other:?}")),
                };
            }
        }
        Err(ServeError::UnknownNode(key.to_string()).to_string())
    }
}

/// A key the router resolved: global id and row, plus the version
/// vector it was resolved under, so a knn on it reads the answer cache
/// at the same generation.
#[derive(Clone)]
struct Resolved {
    global: u32,
    row: Vec<f32>,
    versions: VersionVec,
}

impl Backend for Inner {
    type Node = Resolved;

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn num_nodes(&self) -> usize {
        self.manifest.total_nodes as usize
    }

    /// [`Inner::resolve_global`] through the version-keyed resolve
    /// cache. Only successes are cached (a miss may be a transient shard
    /// outage, and the standalone server re-answers unknown keys cheaply
    /// anyway).
    fn resolve(&self, key: &str) -> Result<Resolved, String> {
        let versions = self.version_vec();
        let cache_key = (key.to_string(), versions.clone());
        let cached = lock(self.resolve_cache.lock()).get(&cache_key).cloned();
        let (global, row) = match cached {
            Some(hit) => hit,
            None => {
                let resolved = self.resolve_global(key)?;
                lock(self.resolve_cache.lock()).insert(cache_key, resolved.clone());
                resolved
            }
        };
        Ok(Resolved { global, row, versions })
    }

    fn knn(&self, query: KnnQuery<Resolved>, k: usize, explain: bool) -> Result<KnnAnswer, String> {
        let (vector, exclude, cache_key) = match query {
            KnnQuery::Node(node) => {
                // Node-keyed, non-explain queries go through the answer
                // cache, keyed by resolved id — not the raw key — so
                // aliased spellings of one node share an entry, exactly
                // like the standalone engine's id-keyed hot-node cache.
                let key = (!explain).then_some((node.global, k, node.versions));
                let hit =
                    key.as_ref().and_then(|key| lock(self.knn_cache.lock()).get(key).cloned());
                if let Some(neighbors) = hit {
                    self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(KnnAnswer { neighbors, cached: true, explain: None });
                }
                (node.row, Some(node.global), key)
            }
            KnnQuery::Vector(q) => (q, None, None),
        };
        // Vector and explain queries count as misses too, mirroring the
        // standalone engine's accounting.
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        // Over-fetch one extra when the query node will be dropped, so
        // every per-shard candidate list stays sufficient for a global
        // top-k (the excluded node lives in exactly one shard's list).
        let fetch = k + usize::from(exclude.is_some());
        let req = Request::Knn { k: fetch as u32, explain, vector };
        let results = self.scatter(&req, self.config.shard_timeout);
        let mut candidates: Vec<Hit> = Vec::new();
        let mut shard_infos = Vec::with_capacity(self.shards.len());
        for (s, result) in results.into_iter().enumerate() {
            match result? {
                Response::Knn { neighbors, info } => {
                    for (local, dist, label) in neighbors {
                        candidates.push((
                            dist,
                            global_of(s as u32, local, self.manifest.num_shards),
                            label,
                        ));
                    }
                    shard_infos.push(info);
                }
                other => return Err(format!("shard {s}: unexpected response {other:?}")),
            }
        }
        // The single-node tie-break, globally: ascending (dist, id).
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        candidates.retain(|&(_, id, _)| Some(id) != exclude);
        candidates.truncate(k);
        // Cached answers live long: hold no spare capacity.
        candidates.shrink_to_fit();
        let neighbors = Arc::new(candidates);
        if let Some(key) = cache_key {
            // Insert after computing, under the versions read when the
            // key resolved: if a reload landed mid-request, this entry's
            // key is already orphaned and can never answer a
            // new-generation query.
            lock(self.knn_cache.lock()).insert(key, Arc::clone(&neighbors));
        }
        let explain = explain.then(|| {
            let mut scanned_total = 0u64;
            let shards_json: Vec<Json> = shard_infos
                .iter()
                .enumerate()
                .map(|(s, info)| {
                    let (probed, scanned, nprobe) = match info {
                        Some((p, n, np)) => (p.as_slice(), *n, *np),
                        None => (&[][..], 0, 0),
                    };
                    scanned_total += scanned;
                    Json::obj([
                        ("shard", Json::Num(s as f64)),
                        (
                            "probed_centroids",
                            Json::Arr(probed.iter().map(|&c| Json::Num(c as f64)).collect()),
                        ),
                        ("scanned", Json::Num(scanned as f64)),
                        // nprobe 0 on the wire means "exact index".
                        ("nprobe", if nprobe == 0 { Json::Null } else { Json::Num(nprobe as f64) }),
                    ])
                })
                .collect();
            Json::obj([
                ("scanned", Json::Num(scanned_total as f64)),
                ("rank_agreement", Json::Null),
                ("shards", Json::Arr(shards_json)),
            ])
        });
        Ok(KnnAnswer { neighbors, cached: false, explain })
    }

    fn score(&self, pairs: Vec<(Resolved, Resolved)>) -> Result<Vec<f64>, String> {
        Ok(pairs.iter().map(|(a, b)| sq_dist_f64(&a.row, &b.row)).collect())
    }

    fn served(&self, started: Instant) {
        self.stats.latency.record(started.elapsed());
    }

    /// Rolling reload: shard by shard, replica by replica, strictly
    /// sequential — at any instant at most one replica is busy loading,
    /// so every shard keeps at least one replica serving (with ≥2
    /// replicas per shard) and the cluster never goes dark.
    fn reload(&self) -> Result<Json, String> {
        let mut all_ok = true;
        let mut shards_json = Vec::with_capacity(self.shards.len());
        for (s, set) in self.shards.iter().enumerate() {
            let mut replicas_json = Vec::with_capacity(set.replicas.len());
            for replica in &set.replicas {
                let addr = ("addr", Json::Str(replica.addr.to_string()));
                let reloaded = match replica.call(
                    &Request::Reload,
                    self.config.reload_timeout,
                    &self.config,
                ) {
                    Ok(Response::Reloaded { version, nodes }) => Ok((version, nodes)),
                    Ok(Response::Error(msg)) | Err(msg) => Err(msg),
                    Ok(other) => Err(format!("unexpected response {other:?}")),
                };
                replicas_json.push(match reloaded {
                    Ok((version, nodes)) => Json::obj([
                        addr,
                        ("ok", Json::Bool(true)),
                        ("version", Json::Num(version as f64)),
                        ("nodes", Json::Num(nodes as f64)),
                    ]),
                    Err(msg) => {
                        all_ok = false;
                        Json::obj([addr, ("ok", Json::Bool(false)), ("error", Json::Str(msg))])
                    }
                });
            }
            shards_json.push(Json::obj([
                ("shard", Json::Num(s as f64)),
                ("replicas", Json::Arr(replicas_json)),
            ]));
        }
        // Partial success is reported, not hidden: a version-skewed
        // cluster is an operational problem the caller must see.
        Ok(Json::obj([("ok", Json::Bool(all_ok)), ("rolled", Json::Arr(shards_json))]))
    }

    fn stats_doc(&self) -> Json {
        let snap = self.stats.snapshot();
        let shards_json: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, set)| {
                let replicas: Vec<Json> = set
                    .replicas
                    .iter()
                    .map(|r| {
                        let st = r.status();
                        Json::obj([
                            ("addr", Json::Str(st.addr.to_string())),
                            ("healthy", Json::Bool(st.healthy)),
                            ("breaker_open", Json::Bool(st.breaker_open)),
                            ("consecutive_failures", Json::Num(st.consecutive_failures as f64)),
                            ("connected", Json::Bool(st.connected)),
                            ("in_flight", Json::Num(st.in_flight as f64)),
                            ("snapshot_version", Json::Num(st.snapshot_version as f64)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("shard", Json::Num(s as f64)),
                    ("nodes", Json::Num(self.manifest.shards[s].nodes as f64)),
                    ("replicas", Json::Arr(replicas)),
                ])
            })
            .collect();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("role", Json::Str(snap.role.as_str().to_string())),
            ("shard_id", Json::Null),
            ("index", Json::Str("router".to_string())),
            ("nodes", Json::Num(self.manifest.total_nodes as f64)),
            ("dim", Json::Num(self.manifest.dim as f64)),
            ("num_shards", Json::Num(self.manifest.num_shards as f64)),
            ("requests", Json::Num(snap.requests as f64)),
            ("rejected", Json::Num(snap.rejected as f64)),
            ("timeouts", Json::Num(snap.timeouts as f64)),
            ("overloads", Json::Num(snap.overloads as f64)),
            ("mean_us", Json::Num(snap.mean_us)),
            ("p50_us", Json::Num(snap.p50_us as f64)),
            ("p95_us", Json::Num(snap.p95_us as f64)),
            ("p99_us", Json::Num(snap.p99_us as f64)),
            ("cache_hits", Json::Num(snap.cache_hits as f64)),
            ("cache_misses", Json::Num(snap.cache_misses as f64)),
            ("ops", op_counts_json(&snap.ops)),
            ("shards", Json::Arr(shards_json)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_shards_quant;
    use crate::shard::{ShardConfig, ShardHandle, ShardServer};
    use ehna_serve::{handle_line, BruteForceIndex, EmbeddingStore, EngineConfig, QueryEngine};
    use ehna_tgraph::{NodeEmbeddings, QuantFormat, QuantSpec, QuantizedEmbeddings};
    use std::path::Path;

    fn table(n: usize, dim: usize) -> NodeEmbeddings {
        // Deliberately tie-heavy: values repeat mod 5 so distance ties
        // exercise the (dist, id) tie-break across shard boundaries.
        let data: Vec<f32> = (0..n * dim).map(|i| ((i * 7) % 5) as f32).collect();
        NodeEmbeddings::from_vec(dim, data)
    }

    /// Plan `emb`'s lossless EHNQ `f32` encoding into `num_shards` shards.
    fn plan(emb: &NodeEmbeddings, num_shards: u32, dir: &Path) -> ClusterManifest {
        let q = QuantizedEmbeddings::encode(emb, &QuantSpec::new(QuantFormat::F32)).unwrap();
        plan_shards_quant(&q, None, num_shards, dir).unwrap()
    }

    fn standalone(emb: &NodeEmbeddings) -> Arc<QueryEngine> {
        let store = Arc::new(EmbeddingStore::new(emb.clone(), None).unwrap());
        let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
        Arc::new(QueryEngine::new(store, index, EngineConfig::default()))
    }

    struct TestCluster {
        dir: std::path::PathBuf,
        handles: Vec<ShardHandle>,
        router: Router,
    }

    impl TestCluster {
        fn start(emb: &NodeEmbeddings, num_shards: u32, name: &str) -> TestCluster {
            let config = RouterConfig {
                probe_interval: Duration::ZERO, // deterministic tests
                ..Default::default()
            };
            Self::start_with(emb, num_shards, name, config)
        }

        fn start_with(
            emb: &NodeEmbeddings,
            num_shards: u32,
            name: &str,
            config: RouterConfig,
        ) -> TestCluster {
            let dir = std::env::temp_dir().join(format!("ehna_router_test_{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            let manifest = plan(emb, num_shards, &dir);
            let mut handles = Vec::new();
            let mut addrs = Vec::new();
            for entry in &manifest.shards {
                let store = Arc::new(
                    EmbeddingStore::open(dir.join(&entry.snapshot), Some(dir.join(&entry.names)))
                        .unwrap(),
                );
                let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
                let engine = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));
                let config = ShardConfig { shard_id: handles.len() as u32, ..Default::default() };
                let handle = ShardServer::bind(
                    "127.0.0.1:0",
                    engine,
                    RequestLimits::default(),
                    None,
                    config,
                )
                .unwrap()
                .spawn()
                .unwrap();
                addrs.push(vec![handle.addr()]);
                handles.push(handle);
            }
            let router = Router::new(manifest, addrs, RequestLimits::default(), config).unwrap();
            TestCluster { dir, handles, router }
        }

        fn stop(self) {
            drop(self.router);
            for h in self.handles {
                h.shutdown();
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn neighbors_of(resp: &Json) -> String {
        format!("{}", resp.get("neighbors").expect("neighbors field"))
    }

    #[test]
    fn sharded_knn_matches_standalone_exactly() {
        let emb = table(23, 4);
        let single = standalone(&emb);
        let limits = RequestLimits::default();
        for shards in [1u32, 2, 4] {
            let cluster = TestCluster::start(&emb, shards, &format!("eq{shards}"));
            for line in [
                "{\"op\":\"knn\",\"node\":0,\"k\":5}",
                "{\"op\":\"knn\",\"node\":\"22\",\"k\":23}",
                "{\"op\":\"knn\",\"node\":7,\"k\":1}",
                "{\"op\":\"knn\",\"vector\":[1,2,3,4],\"k\":6}",
                "{\"op\":\"knn\",\"node\":3}",
            ] {
                let want = handle_line(&single, &limits, line);
                let got = cluster.router.handle_line(line);
                assert_eq!(neighbors_of(&got), neighbors_of(&want), "shards={shards} line={line}");
                assert_eq!(got.get("k").unwrap().to_string(), want.get("k").unwrap().to_string());
            }
            // Error surfaces line up too.
            for line in [
                "{\"op\":\"knn\",\"node\":99}",
                "{\"op\":\"knn\",\"node\":0,\"k\":0}",
                "{\"op\":\"knn\"}",
                "{\"op\":\"nope\"}",
            ] {
                let want = handle_line(&single, &limits, line);
                let got = cluster.router.handle_line(line);
                assert_eq!(got.to_string(), want.to_string(), "shards={shards} line={line}");
            }
            cluster.stop();
        }
    }

    #[test]
    fn sharded_score_matches_standalone_exactly() {
        let emb = table(12, 3);
        let single = standalone(&emb);
        let limits = RequestLimits::default();
        let cluster = TestCluster::start(&emb, 3, "score");
        for line in [
            "{\"op\":\"score\",\"pairs\":[[0,1],[5,11],[4,4]]}",
            "{\"op\":\"score\",\"pairs\":[[\"2\",\"9\"]]}",
            "{\"op\":\"score\",\"pairs\":[[0,99]]}",
        ] {
            let want = handle_line(&single, &limits, line);
            let got = cluster.router.handle_line(line);
            assert_eq!(got.to_string(), want.to_string(), "line={line}");
        }
        cluster.stop();
    }

    #[test]
    fn batch_fans_out_and_refuses_control_ops() {
        let emb = table(10, 2);
        let single = standalone(&emb);
        let limits = RequestLimits::default();
        let cluster = TestCluster::start(&emb, 2, "batch");
        let line = "{\"op\":\"batch\",\"requests\":[{\"op\":\"ping\"},{\"op\":\"knn\",\"node\":1,\"k\":3},{\"op\":\"reload\"},{\"op\":\"score\",\"pairs\":[[0,9]]}]}";
        let want = handle_line(&single, &limits, line);
        let got = cluster.router.handle_line(line);
        let want_resps = want.get("responses").unwrap().as_arr().unwrap();
        let got_resps = got.get("responses").unwrap().as_arr().unwrap();
        assert_eq!(got_resps.len(), want_resps.len());
        assert_eq!(got_resps[0].to_string(), want_resps[0].to_string(), "ping");
        assert_eq!(neighbors_of(&got_resps[1]), neighbors_of(&want_resps[1]), "knn inside batch");
        assert_eq!(got_resps[2].to_string(), want_resps[2].to_string(), "refused reload");
        assert_eq!(got_resps[3].to_string(), want_resps[3].to_string(), "score inside batch");
        cluster.stop();
    }

    #[test]
    fn stats_reports_router_role_and_replica_health() {
        let emb = table(8, 2);
        let cluster = TestCluster::start(&emb, 2, "stats");
        let _ = cluster.router.handle_line("{\"op\":\"knn\",\"node\":0,\"k\":2}");
        let stats = cluster.router.handle_line("{\"op\":\"stats\"}");
        let text = stats.to_string();
        assert!(text.contains("\"role\":\"router\""), "stats: {text}");
        assert!(text.contains("\"num_shards\":2"), "stats: {text}");
        assert!(text.contains("\"healthy\":true"), "stats: {text}");
        // Every in-flight guard has dropped by the time the query
        // returns, and no probe has run (interval zero) so replica
        // versions are still unknown.
        assert!(text.contains("\"in_flight\":0"), "stats: {text}");
        assert!(text.contains("\"snapshot_version\":0"), "stats: {text}");
        assert!(text.contains("\"cache_hits\":0"), "stats: {text}");
        assert!(text.contains("\"cache_misses\":1"), "stats: {text}");
        assert_eq!(stats.get("ops").unwrap().get("knn").unwrap().as_usize(), Some(1));
        cluster.stop();
    }

    #[test]
    fn shard_request_errors_come_back_verbatim() {
        let emb = table(9, 4);
        let single = standalone(&emb);
        let limits = RequestLimits::default();
        let cluster = TestCluster::start(&emb, 2, "verberr");
        // A wrong-dimension vector is validated on the shard, not the
        // router; the message must match standalone word for word — in
        // particular, no "shard N" prefix on request-level errors.
        let line = "{\"op\":\"knn\",\"vector\":[1,2],\"k\":3}";
        let want = handle_line(&single, &limits, line).to_string();
        let got = cluster.router.handle_line(line).to_string();
        assert_eq!(got, want, "request-level error must be verbatim");
        assert!(!got.contains("shard"), "availability prefix leaked: {got}");
        cluster.stop();
    }

    #[test]
    fn availability_errors_keep_the_shard_prefix() {
        let emb = table(6, 2);
        let dir = std::env::temp_dir().join("ehna_router_test_availerr");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = plan(&emb, 1, &dir);
        // Nothing listens on the discard port: every attempt fails at
        // connect, which is an availability error, not a request error.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let config = RouterConfig {
            probe_interval: Duration::ZERO,
            connect_timeout: Duration::from_millis(200),
            shard_timeout: Duration::from_millis(500),
            ..Default::default()
        };
        let router =
            Router::new(manifest, vec![vec![addr]], RequestLimits::default(), config).unwrap();
        let resp = router.handle_line("{\"op\":\"knn\",\"vector\":[1,2],\"k\":3}").to_string();
        assert!(resp.contains("\"ok\":false"), "resp: {resp}");
        assert!(resp.contains("shard 0 unavailable:"), "resp: {resp}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn node_knn_answers_from_cache_until_reload_changes_versions() {
        use ehna_serve::Reloader;
        let emb = table(14, 3);
        let dir = std::env::temp_dir().join("ehna_router_test_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = plan(&emb, 2, &dir);
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for (s, entry) in manifest.shards.iter().enumerate() {
            let snap = dir.join(&entry.snapshot);
            let names = dir.join(&entry.names);
            let store = Arc::new(EmbeddingStore::open(&snap, Some(&names)).unwrap());
            let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
            let engine = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));
            let reloader: Reloader = Arc::new(move || {
                let store = Arc::new(EmbeddingStore::open(&snap, Some(&names))?);
                let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
                Ok((store, index as Box<dyn ehna_serve::KnnIndex>))
            });
            let config = ShardConfig { shard_id: s as u32, ..Default::default() };
            let handle = ShardServer::bind(
                "127.0.0.1:0",
                engine,
                RequestLimits::default(),
                Some(reloader),
                config,
            )
            .unwrap()
            .spawn()
            .unwrap();
            addrs.push(vec![handle.addr()]);
            handles.push(handle);
        }
        let config = RouterConfig { probe_interval: Duration::ZERO, ..Default::default() };
        let router = Router::new(manifest, addrs, RequestLimits::default(), config).unwrap();

        let line = "{\"op\":\"knn\",\"node\":0,\"k\":4}";
        let cold = router.handle_line(line);
        assert_eq!(cold.get("cached"), Some(&Json::Bool(false)), "cold: {cold}");
        let warm = router.handle_line(line);
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)), "warm: {warm}");
        assert_eq!(neighbors_of(&warm), neighbors_of(&cold), "cache must not change answers");

        // Aliased spellings of one node share an entry: the cache is
        // keyed by resolved global id, not by the raw key string.
        let by_num = router.handle_line("{\"op\":\"knn\",\"node\":3,\"k\":4}");
        assert_eq!(by_num.get("cached"), Some(&Json::Bool(false)), "{by_num}");
        let by_str = router.handle_line("{\"op\":\"knn\",\"node\":\"3\",\"k\":4}");
        assert_eq!(by_str.get("cached"), Some(&Json::Bool(true)), "{by_str}");
        assert_eq!(neighbors_of(&by_str), neighbors_of(&by_num));

        // Vector and explain queries are never cached.
        let vec_line = "{\"op\":\"knn\",\"vector\":[1,0,2],\"k\":3}";
        for _ in 0..2 {
            let resp = router.handle_line(vec_line);
            assert_eq!(resp.get("cached"), Some(&Json::Bool(false)), "{resp}");
        }
        let explain = router.handle_line("{\"op\":\"knn\",\"node\":0,\"k\":4,\"explain\":true}");
        assert_eq!(explain.get("cached"), Some(&Json::Bool(false)), "{explain}");
        assert!(explain.get("explain").is_some(), "{explain}");

        // A rolling reload bumps every replica's snapshot version, which
        // re-keys the cache: the old entries can never be served again.
        let rolled = router.handle_line("{\"op\":\"reload\"}");
        assert_eq!(rolled.get("ok"), Some(&Json::Bool(true)), "{rolled}");
        let after = router.handle_line(line);
        assert_eq!(after.get("cached"), Some(&Json::Bool(false)), "post-reload: {after}");
        assert_eq!(neighbors_of(&after), neighbors_of(&cold), "same data, same answer");
        let again = router.handle_line(line);
        assert_eq!(again.get("cached"), Some(&Json::Bool(true)), "re-warm: {again}");

        drop(router);
        for h in handles {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_capacity_zero_disables_the_cache() {
        let emb = table(10, 2);
        let config = RouterConfig {
            probe_interval: Duration::ZERO,
            cache_capacity: 0,
            ..Default::default()
        };
        let cluster = TestCluster::start_with(&emb, 2, "nocache", config);
        let line = "{\"op\":\"knn\",\"node\":1,\"k\":3}";
        let first = cluster.router.handle_line(line);
        let second = cluster.router.handle_line(line);
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "{first}");
        assert_eq!(second.get("cached"), Some(&Json::Bool(false)), "{second}");
        assert_eq!(neighbors_of(&second), neighbors_of(&first));
        cluster.stop();
    }

    #[test]
    fn failover_and_breaker_take_a_dead_replica_out() {
        let emb = table(10, 2);
        // 1 shard, 2 replicas over the same partition.
        let dir = std::env::temp_dir().join("ehna_router_test_failover");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = plan(&emb, 1, &dir);
        let mk_handle = || {
            let store = Arc::new(
                EmbeddingStore::open(
                    dir.join(&manifest.shards[0].snapshot),
                    Some(dir.join(&manifest.shards[0].names)),
                )
                .unwrap(),
            );
            let index = Box::new(BruteForceIndex::new(Arc::clone(&store)));
            let engine = Arc::new(QueryEngine::new(store, index, EngineConfig::default()));
            ShardServer::bind(
                "127.0.0.1:0",
                engine,
                RequestLimits::default(),
                None,
                ShardConfig::default(),
            )
            .unwrap()
            .spawn()
            .unwrap()
        };
        let a = mk_handle();
        let b = mk_handle();
        let config = RouterConfig {
            // Probes are what accumulate failures on a demoted replica
            // (queries stop visiting it after the first failure), so the
            // breaker only opens with probing on.
            probe_interval: Duration::from_millis(100),
            shard_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(30),
            // Cache off: this test repeats one query and must hit the
            // scatter path every time to exercise failover.
            cache_capacity: 0,
            ..Default::default()
        };
        let router = Router::new(
            manifest.clone(),
            vec![vec![a.addr(), b.addr()]],
            RequestLimits::default(),
            config,
        )
        .unwrap();

        let line = "{\"op\":\"knn\",\"node\":0,\"k\":3}";
        let baseline = router.handle_line(line).to_string();
        assert!(baseline.contains("\"ok\":true"), "baseline: {baseline}");

        // Kill replica A; every query must keep succeeding via B.
        let a_addr = a.addr();
        a.shutdown();
        for i in 0..6 {
            let resp = router.handle_line(line).to_string();
            assert_eq!(resp, baseline, "query {i} after replica kill");
        }
        // Repeated probe failures open A's breaker; B stays healthy.
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let status = router.replica_status();
            let a_status = status[0].iter().find(|r| r.addr == a_addr).unwrap();
            let b_status = status[0].iter().find(|r| r.addr != a_addr).unwrap();
            assert!(b_status.healthy, "surviving replica demoted: {b_status:?}");
            if !a_status.healthy && a_status.breaker_open {
                break;
            }
            assert!(Instant::now() < deadline, "breaker never opened: {a_status:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
        // With A's breaker open, queries still succeed (and never try A
        // on the preferred pass).
        assert_eq!(router.handle_line(line).to_string(), baseline);

        drop(router);
        b.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn router_rejects_mismatched_replica_maps() {
        let emb = table(6, 2);
        let dir = std::env::temp_dir().join("ehna_router_test_badmap");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = plan(&emb, 2, &dir);
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(Router::new(
            manifest.clone(),
            vec![vec![addr]],
            RequestLimits::default(),
            RouterConfig::default()
        )
        .is_err());
        assert!(Router::new(
            manifest,
            vec![vec![addr], vec![]],
            RequestLimits::default(),
            RouterConfig::default()
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
