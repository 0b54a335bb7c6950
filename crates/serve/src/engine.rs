//! The query engine: a swappable snapshot pointer, a hot-node LRU cache,
//! latency accounting, and a cap on concurrent index scans.
//!
//! Every query runs on the thread that calls it. A call pins one
//! `Arc<Snapshot>` and validates against it once; a cache hit returns
//! before any scan permit is taken, and at most `workers` index scans
//! (cache misses, vector queries, explain runs) run at once.

use crate::cache::LruCache;
use crate::index::{BruteForceIndex, KnnIndex, Neighbor, SearchInfo};
use crate::stats::{EngineStats, StatsSnapshot};
use crate::store::EmbeddingStore;
use crate::{lock, ServeError};
use ehna_tgraph::NodeId;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Index scans that may run at once; callers beyond it wait.
    pub workers: usize,
    /// Hot-node cache entries (`(node, k)` keys); 0 disables caching.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { workers: 2, cache_capacity: 1024 }
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

/// Cached k-NN answers, keyed by `(snapshot version, node id, k)` — the
/// version component makes entries computed against a replaced snapshot
/// unreachable even if a slow caller inserts one after the swap's cache
/// clear.
type KnnCache = LruCache<(u64, u32, usize), Arc<Vec<Neighbor>>>;

/// Monotone identifier of the snapshot an engine is serving; starts at 1
/// and increments on every [`QueryEngine::swap_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotVersion(pub u64);

/// One immutable generation of serving state. A query pins an `Arc` to
/// it, so a hot swap never invalidates data mid-search — in-flight
/// queries finish on the snapshot they started on.
pub struct Snapshot {
    version: u64,
    /// The rows and names of this generation.
    pub store: Arc<EmbeddingStore>,
    /// The index searching `store`.
    pub index: Box<dyn KnnIndex>,
    oracle: BruteForceIndex,
}

impl Snapshot {
    fn new(version: u64, store: Arc<EmbeddingStore>, index: Box<dyn KnnIndex>) -> Self {
        Snapshot { version, oracle: BruteForceIndex::new(Arc::clone(&store)), store, index }
    }
}

/// One running index scan; dropping it frees its permit.
struct ScanPermit<'a>(&'a QueryEngine);

impl Drop for ScanPermit<'_> {
    fn drop(&mut self) {
        *lock(self.0.free_scans.lock()) += 1;
        self.0.scan_freed.notify_one();
    }
}

/// The query engine over one swappable snapshot.
pub struct QueryEngine {
    snap: RwLock<Arc<Snapshot>>,
    cache: Mutex<KnnCache>,
    stats: EngineStats,
    /// Scan permits left of `EngineConfig::workers`.
    free_scans: Mutex<usize>,
    scan_freed: Condvar,
}

impl QueryEngine {
    /// An engine over `store`, answering k-NN queries with `index` (the
    /// exact oracle used by explain requests is always a brute-force
    /// scan over the same store).
    pub fn new(store: Arc<EmbeddingStore>, index: Box<dyn KnnIndex>, config: EngineConfig) -> Self {
        let stats = EngineStats::default();
        stats.snapshot_version.store(1, Ordering::Relaxed);
        QueryEngine {
            snap: RwLock::new(Arc::new(Snapshot::new(1, store, index))),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            stats,
            free_scans: Mutex::new(config.workers.max(1)),
            scan_freed: Condvar::new(),
        }
    }

    /// The snapshot currently being served, pinned: it stays valid (and
    /// unchanged) across a concurrent swap. A request that reads the
    /// store more than once pins once and reads this snapshot throughout.
    pub fn pin(&self) -> Arc<Snapshot> {
        lock(self.snap.read()).clone()
    }

    /// The store of the snapshot currently being served. An owning handle:
    /// after a concurrent [`swap_snapshot`](Self::swap_snapshot) it keeps
    /// pointing at the generation it was taken from.
    pub fn store(&self) -> Arc<EmbeddingStore> {
        Arc::clone(&self.pin().store)
    }

    /// Version of the snapshot currently being served.
    pub fn snapshot_version(&self) -> SnapshotVersion {
        SnapshotVersion(self.pin().version)
    }

    /// Atomically replace the serving snapshot: queries started after
    /// this call see the new store and index; queries already in flight
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
        let mut guard = lock(self.snap.write());
        let version = guard.version + 1;
        *guard = Arc::new(Snapshot::new(version, store, index));
        drop(guard);
        lock(self.cache.lock()).clear();
        self.stats.reloads.fetch_add(1, Ordering::Relaxed);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.stats.last_reload_unix.store(now, Ordering::Relaxed);
        self.stats.snapshot_version.store(version, Ordering::Relaxed);
        SnapshotVersion(version)
    }

    /// Short label of the serving index ("brute" or "ivf").
    pub fn index_kind(&self) -> &'static str {
        self.pin().index.kind()
    }

    /// Top-`k` neighbors of a stored node (the node itself is excluded).
    ///
    /// # Errors
    /// Unknown node.
    pub fn knn_node(&self, id: NodeId, k: usize, explain: bool) -> Result<KnnResult, ServeError> {
        self.knn_node_on(&self.pin(), id, k, explain)
    }

    /// [`knn_node`](Self::knn_node) against a pinned snapshot.
    pub(crate) fn knn_node_on(
        &self,
        snap: &Snapshot,
        id: NodeId,
        k: usize,
        explain: bool,
    ) -> Result<KnnResult, ServeError> {
        let started = Instant::now();
        let key = (snap.version, id.0, k);
        // A version-keyed entry implies `id` was valid in `snap`.
        let hit = if explain { None } else { lock(self.cache.lock()).get(&key).cloned() };
        let result = if let Some(hit) = hit {
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            KnnResult { neighbors: hit.to_vec(), cached: true, info: None, agreement: None }
        } else {
            let result = self.scan(snap, &snap.store.row(id)?, k, explain, Some(id));
            if !explain {
                lock(self.cache.lock()).insert(key, Arc::new(result.neighbors.clone()));
            }
            result
        };
        self.stats.latency.record(started.elapsed());
        Ok(result)
    }

    /// Top-`k` neighbors of a free query vector.
    ///
    /// # Errors
    /// Dimension mismatch.
    pub fn knn_vector(
        &self,
        vector: Vec<f32>,
        k: usize,
        explain: bool,
    ) -> Result<KnnResult, ServeError> {
        self.knn_vector_on(&self.pin(), &vector, k, explain)
    }

    /// [`knn_vector`](Self::knn_vector) against a pinned snapshot.
    ///
    /// # Errors
    /// Dimension mismatch.
    pub fn knn_vector_on(
        &self,
        snap: &Snapshot,
        vector: &[f32],
        k: usize,
        explain: bool,
    ) -> Result<KnnResult, ServeError> {
        let dim = snap.store.dim();
        if vector.len() != dim {
            return Err(ServeError::Dimension { expected: dim, got: vector.len() });
        }
        let started = Instant::now();
        let result = self.scan(snap, vector, k, explain, None);
        self.stats.latency.record(started.elapsed());
        Ok(result)
    }

    /// Link scores (squared Euclidean, Eq. 5 — lower = stronger) for a
    /// batch of candidate edges, in input order.
    ///
    /// # Errors
    /// Any unknown endpoint fails the whole batch.
    pub fn score_pairs(&self, pairs: Vec<(NodeId, NodeId)>) -> Result<Vec<f64>, ServeError> {
        self.score_pairs_on(&self.pin(), &pairs)
    }

    /// [`score_pairs`](Self::score_pairs) against a pinned snapshot.
    pub(crate) fn score_pairs_on(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<f64>, ServeError> {
        let started = Instant::now();
        let scores = pairs
            .iter()
            .map(|&(a, b)| snap.store.link_score(a, b))
            .collect::<Result<Vec<f64>, _>>()?;
        self.stats.latency.record(started.elapsed());
        Ok(scores)
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The live counters, for the serving layer to record rejections,
    /// timeouts, and load-shedding against, and for cluster processes to
    /// declare their identity on ([`EngineStats::set_identity`]).
    pub fn stats_raw(&self) -> &EngineStats {
        &self.stats
    }

    /// Run one k-NN search (a cache miss) under a scan permit, excluding
    /// `exclude` from the results, optionally with probe diagnostics and
    /// oracle rank agreement.
    fn scan(
        &self,
        snap: &Snapshot,
        query: &[f32],
        k: usize,
        explain: bool,
        exclude: Option<NodeId>,
    ) -> KnnResult {
        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        let free = lock(self.free_scans.lock());
        *lock(self.scan_freed.wait_while(free, |free| *free == 0)) -= 1;
        let _permit = ScanPermit(self);
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
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("index", &self.index_kind())
            .field("version", &self.snapshot_version().0)
            .finish_non_exhaustive()
    }
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

    /// A brute-force index that calls `probe` around every search.
    struct ProbedIndex<P: Fn(bool) + Send + Sync> {
        inner: BruteForceIndex,
        /// `probe(true)` before a search, `probe(false)` after it.
        probe: P,
    }

    impl<P: Fn(bool) + Send + Sync> KnnIndex for ProbedIndex<P> {
        fn search_explained(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchInfo) {
            (self.probe)(true);
            let out = self.inner.search_explained(query, k);
            (self.probe)(false);
            out
        }

        fn kind(&self) -> &'static str {
            "brute"
        }
    }

    #[test]
    fn cache_hit_answers_while_the_only_scan_is_blocked() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        use std::time::Duration;

        let s = store(60, 8, 42);
        let armed = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
        let gate = Arc::clone(&armed);
        let index = ProbedIndex {
            inner: BruteForceIndex::new(Arc::clone(&s)),
            probe: move |before: bool| {
                if before && gate.swap(false, Ordering::SeqCst) {
                    lock(entered_tx.lock()).send(()).unwrap();
                    lock(release_rx.lock()).recv().unwrap();
                }
            },
        };
        let config = EngineConfig { workers: 1, cache_capacity: 16 };
        let e = Arc::new(QueryEngine::new(s, Box::new(index), config));
        let warm = e.knn_node(NodeId(3), 5, false).unwrap();

        // A miss takes the only scan permit and blocks inside the index.
        armed.store(true, Ordering::SeqCst);
        let blocked = std::thread::spawn({
            let e = Arc::clone(&e);
            move || e.knn_node(NodeId(7), 5, false).unwrap()
        });
        entered_rx.recv_timeout(Duration::from_secs(10)).expect("the miss reached the index");

        let (hit_tx, hit_rx) = mpsc::channel();
        let hitter = std::thread::spawn({
            let e = Arc::clone(&e);
            move || hit_tx.send(e.knn_node(NodeId(3), 5, false).unwrap()).unwrap()
        });
        let hit = hit_rx.recv_timeout(Duration::from_secs(2));
        // Release before asserting so a failure reports instead of hanging.
        release_tx.send(()).unwrap();
        assert!(!blocked.join().unwrap().cached);
        hitter.join().unwrap();
        let hit = hit.expect("a cache hit must not wait for a scan permit");
        assert!(hit.cached);
        assert_eq!(hit.neighbors, warm.neighbors);
    }

    #[test]
    fn concurrent_scans_never_exceed_workers() {
        use std::sync::atomic::AtomicUsize;

        for workers in [1, 2] {
            let s = store(300, 8, 5);
            let running = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let (run, top) = (Arc::clone(&running), Arc::clone(&peak));
            let index = ProbedIndex {
                inner: BruteForceIndex::new(Arc::clone(&s)),
                probe: move |before: bool| {
                    if before {
                        top.fetch_max(run.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    } else {
                        run.fetch_sub(1, Ordering::SeqCst);
                    }
                },
            };
            let config = EngineConfig { workers, cache_capacity: 0 };
            let e = QueryEngine::new(s, Box::new(index), config);
            std::thread::scope(|scope| {
                for t in 0..8u32 {
                    let e = &e;
                    scope.spawn(move || {
                        for i in 0..10 {
                            e.knn_node(NodeId(t * 10 + i), 3, false).unwrap();
                        }
                    });
                }
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!((1..=workers).contains(&peak), "{peak} scans ran at once, cap {workers}");
            assert_eq!(running.load(Ordering::SeqCst), 0);
        }
    }
}
