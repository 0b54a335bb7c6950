//! The batched query engine: a pool of worker threads draining a shared
//! request channel, a hot-node LRU cache, and latency accounting.
//!
//! Callers block on a per-request reply channel, so the public API stays
//! synchronous while the workers batch under load: each worker drains up
//! to `batch_max` queued requests after its blocking receive, amortizing
//! wakeups when the queue runs deep.

use crate::cache::LruCache;
use crate::index::{BruteForceIndex, KnnIndex, Neighbor, SearchInfo};
use crate::stats::{EngineStats, StatsSnapshot};
use crate::store::EmbeddingStore;
use crate::{lock, ServeError};
use ehna_tgraph::NodeId;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Maximum requests one worker drains per wakeup.
    pub batch_max: usize,
    /// Hot-node cache entries (`(node, k)` keys); 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { workers: 2, batch_max: 32, cache_capacity: 1024 }
    }
}

/// A k-NN answer plus serving metadata.
#[derive(Debug, Clone)]
pub struct KnnResult {
    /// Nearest neighbors, ascending by distance.
    pub neighbors: Vec<Neighbor>,
    /// Whether the answer came from the hot-node cache.
    pub cached: bool,
    /// Probe diagnostics (explain requests only).
    pub info: Option<SearchInfo>,
    /// Fraction of positions where the approximate ranking matches the
    /// exact oracle ranking (explain requests only).
    pub agreement: Option<f64>,
}

enum Request {
    KnnNode { id: NodeId, k: usize, explain: bool },
    KnnVector { vector: Vec<f32>, k: usize, explain: bool },
    Score { pairs: Vec<(NodeId, NodeId)> },
}

enum Response {
    Knn(KnnResult),
    Scores(Vec<f64>),
}

struct Job {
    req: Request,
    started: Instant,
    reply: SyncSender<Result<Response, ServeError>>,
}

/// Cached k-NN answers, keyed by `(snapshot version, node id, k)` — the
/// version component makes entries computed against a replaced snapshot
/// unreachable even if a slow worker inserts one after the swap's cache
/// clear.
type KnnCache = LruCache<(u64, u32, usize), Arc<Vec<Neighbor>>>;

/// Monotone identifier of the snapshot an engine is serving; starts at 1
/// and increments on every [`QueryEngine::swap_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotVersion(pub u64);

/// One immutable generation of serving state. Workers grab an `Arc` to it
/// per request, so a hot swap never invalidates data mid-search —
/// in-flight requests finish on the snapshot they started on.
struct Snapshot {
    version: u64,
    store: Arc<EmbeddingStore>,
    index: Box<dyn KnnIndex>,
    oracle: BruteForceIndex,
}

struct Shared {
    snap: RwLock<Arc<Snapshot>>,
    cache: Mutex<KnnCache>,
    stats: EngineStats,
}

impl Shared {
    fn snapshot(&self) -> Arc<Snapshot> {
        lock(self.snap.read()).clone()
    }
}

/// The multi-threaded query engine over one immutable snapshot.
pub struct QueryEngine {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl QueryEngine {
    /// Spawn the worker pool over `store`, answering k-NN queries with
    /// `index` (the exact oracle used by explain requests is always a
    /// brute-force scan over the same store).
    pub fn new(store: Arc<EmbeddingStore>, index: Box<dyn KnnIndex>, config: EngineConfig) -> Self {
        let snap =
            Snapshot { version: 1, oracle: BruteForceIndex::new(Arc::clone(&store)), store, index };
        let shared = Arc::new(Shared {
            snap: RwLock::new(Arc::new(snap)),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            stats: EngineStats::default(),
        });
        shared.stats.snapshot_version.store(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let batch_max = config.batch_max.max(1);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared, batch_max))
            })
            .collect();
        QueryEngine { tx: Some(tx), workers, shared }
    }

    /// The store of the snapshot currently being served. An owning handle:
    /// after a concurrent [`swap_snapshot`](Self::swap_snapshot) it keeps
    /// pointing at the generation it was taken from.
    pub fn store(&self) -> Arc<EmbeddingStore> {
        Arc::clone(&self.shared.snapshot().store)
    }

    /// Version of the snapshot currently being served.
    pub fn snapshot_version(&self) -> SnapshotVersion {
        SnapshotVersion(self.shared.snapshot().version)
    }

    /// Atomically replace the serving snapshot: queries submitted after
    /// this call see the new store and index; requests already in flight
    /// finish against the old generation. The hot-node cache restarts
    /// cold (entries are version-keyed, so leftovers from the old
    /// generation can never answer a new-generation query).
    ///
    /// Returns the new snapshot's version.
    pub fn swap_snapshot(
        &self,
        store: Arc<EmbeddingStore>,
        index: Box<dyn KnnIndex>,
    ) -> SnapshotVersion {
        let mut guard = lock(self.shared.snap.write());
        let next = Snapshot {
            version: guard.version + 1,
            oracle: BruteForceIndex::new(Arc::clone(&store)),
            store,
            index,
        };
        let version = next.version;
        *guard = Arc::new(next);
        drop(guard);
        lock(self.shared.cache.lock()).clear();
        self.shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.shared.stats.last_reload_unix.store(now, Ordering::Relaxed);
        self.shared.stats.snapshot_version.store(version, Ordering::Relaxed);
        SnapshotVersion(version)
    }

    /// Short label of the serving index ("brute" or "ivf").
    pub fn index_kind(&self) -> &'static str {
        self.shared.snapshot().index.kind()
    }

    /// Clusters probed per query, when the serving index is approximate
    /// (`None` for exact indexes).
    pub fn index_nprobe(&self) -> Option<usize> {
        self.shared.snapshot().index.nprobe()
    }

    /// Top-`k` neighbors of a stored node (the node itself is excluded).
    ///
    /// # Errors
    /// Unknown node, or an engine shut down mid-request.
    pub fn knn_node(&self, id: NodeId, k: usize, explain: bool) -> Result<KnnResult, ServeError> {
        self.shared.snapshot().store.row(id)?; // fail fast before queueing
        match self.submit(Request::KnnNode { id, k, explain })? {
            Response::Knn(r) => Ok(r),
            Response::Scores(_) => unreachable!("knn request got score response"),
        }
    }

    /// Top-`k` neighbors of a free query vector.
    ///
    /// # Errors
    /// Dimension mismatch, or an engine shut down mid-request.
    pub fn knn_vector(
        &self,
        vector: Vec<f32>,
        k: usize,
        explain: bool,
    ) -> Result<KnnResult, ServeError> {
        let dim = self.shared.snapshot().store.dim();
        if vector.len() != dim {
            return Err(ServeError::Dimension { expected: dim, got: vector.len() });
        }
        match self.submit(Request::KnnVector { vector, k, explain })? {
            Response::Knn(r) => Ok(r),
            Response::Scores(_) => unreachable!("knn request got score response"),
        }
    }

    /// Link scores (squared Euclidean, Eq. 5 — lower = stronger) for a
    /// batch of candidate edges, in input order.
    ///
    /// # Errors
    /// Any unknown endpoint fails the whole batch.
    pub fn score_pairs(&self, pairs: Vec<(NodeId, NodeId)>) -> Result<Vec<f64>, ServeError> {
        let snap = self.shared.snapshot();
        for &(a, b) in &pairs {
            snap.store.row(a)?;
            snap.store.row(b)?;
        }
        match self.submit(Request::Score { pairs })? {
            Response::Scores(s) => Ok(s),
            Response::Knn(_) => unreachable!("score request got knn response"),
        }
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The live counters, for the serving layer to record rejections,
    /// timeouts, and load-shedding against, and for cluster processes to
    /// declare their identity on ([`EngineStats::set_identity`]).
    pub fn stats_raw(&self) -> &EngineStats {
        &self.shared.stats
    }

    fn submit(&self, req: Request) -> Result<Response, ServeError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job { req, started: Instant::now(), reply: reply_tx };
        self.tx
            .as_ref()
            .expect("sender lives until drop")
            .send(job)
            .map_err(|_| ServeError::Closed)?;
        reply_rx.recv().map_err(|_| ServeError::Closed)?
    }
}

impl Drop for QueryEngine {
    fn drop(&mut self) {
        // Closing the channel stops the workers after the queue drains.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("index", &self.index_kind())
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared, batch_max: usize) {
    loop {
        // The workers share one receiver: hold it only for the blocking
        // receive and the drain of what is already queued behind it.
        let mut batch = Vec::with_capacity(batch_max);
        {
            let rx = lock(rx.lock());
            let Ok(first) = rx.recv() else { return };
            batch.push(first);
            batch.extend(rx.try_iter().take(batch_max - 1));
        }
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        for job in batch {
            // Pin one snapshot per request: a swap between submit and
            // process means the fail-fast checks ran against the old
            // generation, so every access below must re-validate.
            let snap = shared.snapshot();
            let resp = process(shared, &snap, job.req);
            shared.stats.latency.record(job.started.elapsed());
            // A caller that gave up (disconnected reply channel) is fine.
            let _ = job.reply.send(resp);
        }
    }
}

fn process(shared: &Shared, snap: &Snapshot, req: Request) -> Result<Response, ServeError> {
    match req {
        Request::KnnNode { id, k, explain } => {
            if !explain {
                if let Some(hit) = lock(shared.cache.lock()).get(&(snap.version, id.0, k)) {
                    shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Response::Knn(KnnResult {
                        neighbors: hit.as_ref().clone(),
                        cached: true,
                        info: None,
                        agreement: None,
                    }));
                }
            }
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            // Re-validate: the node existed at submit time, but a swap may
            // have installed a smaller store since.
            let query = snap.store.row(id)?.to_vec();
            let mut result = knn(snap, &query, k, explain, Some(id));
            if !explain {
                lock(shared.cache.lock())
                    .insert((snap.version, id.0, k), Arc::new(result.neighbors.clone()));
            }
            result.cached = false;
            Ok(Response::Knn(result))
        }
        Request::KnnVector { vector, k, explain } => {
            if vector.len() != snap.store.dim() {
                return Err(ServeError::Dimension {
                    expected: snap.store.dim(),
                    got: vector.len(),
                });
            }
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Knn(knn(snap, &vector, k, explain, None)))
        }
        Request::Score { pairs } => {
            let scores = pairs
                .into_iter()
                .map(|(a, b)| snap.store.link_score(a, b))
                .collect::<Result<Vec<f64>, _>>()?;
            Ok(Response::Scores(scores))
        }
    }
}

/// Run one k-NN search, excluding `exclude` from the results, optionally
/// with probe diagnostics and oracle rank agreement.
fn knn(
    snap: &Snapshot,
    query: &[f32],
    k: usize,
    explain: bool,
    exclude: Option<NodeId>,
) -> KnnResult {
    // Ask for one extra so self-exclusion still yields k hits.
    let fetch = k + usize::from(exclude.is_some());
    let (mut neighbors, info) = snap.index.search_explained(query, fetch);
    if let Some(id) = exclude {
        neighbors.retain(|n| n.id != id);
    }
    neighbors.truncate(k);
    if !explain {
        return KnnResult { neighbors, cached: false, info: None, agreement: None };
    }
    let (mut exact, _) = snap.oracle.search_explained(query, fetch);
    if let Some(id) = exclude {
        exact.retain(|n| n.id != id);
    }
    exact.truncate(k);
    let agreement = if exact.is_empty() {
        1.0
    } else {
        let matches = exact.iter().zip(&neighbors).filter(|(e, a)| e.id == a.id).count();
        matches as f64 / exact.len() as f64
    };
    KnnResult { neighbors, cached: false, info: Some(info), agreement: Some(agreement) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IvfConfig, IvfIndex};
    use ehna_tgraph::NodeEmbeddings;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store(n: usize, dim: usize, seed: u64) -> Arc<EmbeddingStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Arc::new(EmbeddingStore::new(NodeEmbeddings::from_vec(dim, data), None).unwrap())
    }

    fn brute_engine(n: usize) -> QueryEngine {
        let s = store(n, 8, 42);
        let idx = Box::new(BruteForceIndex::new(Arc::clone(&s)));
        QueryEngine::new(s, idx, EngineConfig::default())
    }

    #[test]
    fn knn_node_excludes_self_and_caches() {
        let e = brute_engine(60);
        let first = e.knn_node(NodeId(3), 5, false).unwrap();
        assert_eq!(first.neighbors.len(), 5);
        assert!(!first.cached);
        assert!(first.neighbors.iter().all(|nb| nb.id != NodeId(3)));
        let again = e.knn_node(NodeId(3), 5, false).unwrap();
        assert!(again.cached);
        assert_eq!(again.neighbors, first.neighbors);
        let snap = e.stats();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.requests, 2);
        assert!(snap.batches >= 1);
    }

    #[test]
    fn knn_vector_checks_dimension() {
        let e = brute_engine(10);
        assert!(matches!(
            e.knn_vector(vec![0.0; 3], 2, false),
            Err(ServeError::Dimension { expected: 8, got: 3 })
        ));
        let r = e.knn_vector(vec![0.0; 8], 2, false).unwrap();
        assert_eq!(r.neighbors.len(), 2);
    }

    #[test]
    fn score_pairs_match_store_metric() {
        let e = brute_engine(10);
        let scores = e.score_pairs(vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(2))]).unwrap();
        let expected = e.store().link_score(NodeId(0), NodeId(1)).unwrap();
        assert!((scores[0] - expected).abs() < 1e-12);
        assert_eq!(scores[1], 0.0);
        assert!(e.score_pairs(vec![(NodeId(0), NodeId(99))]).is_err());
    }

    #[test]
    fn explain_reports_probes_and_agreement() {
        let s = store(500, 8, 7);
        let idx = Box::new(IvfIndex::build(
            Arc::clone(&s),
            IvfConfig { num_clusters: Some(16), nprobe: 16, ..Default::default() },
        ));
        let e = QueryEngine::new(s, idx, EngineConfig::default());
        let r = e.knn_node(NodeId(5), 10, true).unwrap();
        let info = r.info.expect("explain carries info");
        assert_eq!(info.probed.len(), 16);
        assert!(info.scanned > 0);
        // nprobe == clusters means the scan is exhaustive: perfect
        // agreement with the oracle.
        assert_eq!(r.agreement, Some(1.0));
    }

    #[test]
    fn unknown_node_fails_fast() {
        let e = brute_engine(5);
        assert!(matches!(e.knn_node(NodeId(5), 3, false), Err(ServeError::UnknownNode(_))));
    }

    #[test]
    fn concurrent_queries_all_answer() {
        let e = Arc::new(brute_engine(200));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let e = Arc::clone(&e);
                scope.spawn(move || {
                    for i in 0..25 {
                        let id = NodeId(((t * 25 + i) % 200) as u32);
                        let r = e.knn_node(id, 3, false).unwrap();
                        assert_eq!(r.neighbors.len(), 3);
                    }
                });
            }
        });
        assert_eq!(e.stats().requests, 200);
    }

    #[test]
    fn swap_snapshot_serves_new_store_and_bumps_version() {
        let e = brute_engine(60);
        assert_eq!(e.snapshot_version(), SnapshotVersion(1));
        let before = e.knn_node(NodeId(3), 5, false).unwrap();
        assert!(e.knn_node(NodeId(3), 5, false).unwrap().cached, "warm the cache");

        // Swap in a different (and smaller) store.
        let s2 = store(40, 8, 1234);
        let idx2 = Box::new(BruteForceIndex::new(Arc::clone(&s2)));
        let v = e.swap_snapshot(s2, idx2);
        assert_eq!(v, SnapshotVersion(2));
        assert_eq!(e.snapshot_version(), v);
        assert_eq!(e.store().num_nodes(), 40);

        // The old cache entry must not answer for the new snapshot.
        let after = e.knn_node(NodeId(3), 5, false).unwrap();
        assert!(!after.cached, "cache survived the swap");
        assert_ne!(after.neighbors, before.neighbors, "answers still from old store");

        // Nodes that only existed in the old store now error cleanly.
        assert!(matches!(e.knn_node(NodeId(50), 3, false), Err(ServeError::UnknownNode(_))));

        let snap = e.stats();
        assert_eq!(snap.reloads, 1);
        assert_eq!(snap.snapshot_version, 2);
        assert!(snap.last_reload_unix > 0);
    }

    #[test]
    fn swap_under_concurrent_queries_never_breaks_requests() {
        let e = Arc::new(brute_engine(100));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let e = Arc::clone(&e);
                scope.spawn(move || {
                    for i in 0..50 {
                        let id = NodeId(((t * 50 + i) % 80) as u32);
                        // UnknownNode is acceptable mid-swap (store shrank
                        // to 80 would not, but sizes alternate); panics or
                        // hangs are not.
                        match e.knn_node(id, 3, false) {
                            Ok(r) => assert_eq!(r.neighbors.len(), 3),
                            Err(ServeError::UnknownNode(_)) => {}
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
            let e = Arc::clone(&e);
            scope.spawn(move || {
                for gen in 0..3u64 {
                    let s = store(if gen % 2 == 0 { 90 } else { 100 }, 8, 900 + gen);
                    let idx = Box::new(BruteForceIndex::new(Arc::clone(&s)));
                    e.swap_snapshot(s, idx);
                }
            });
        });
        assert_eq!(e.snapshot_version(), SnapshotVersion(4));
        assert_eq!(e.stats().reloads, 3);
    }

    #[test]
    fn drop_joins_workers() {
        let e = brute_engine(10);
        e.knn_node(NodeId(0), 1, false).unwrap();
        drop(e); // must not hang
    }
}
