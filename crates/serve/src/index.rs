//! Nearest-neighbor indexes over the embedding rows.
//!
//! Two implementations with one interface:
//!
//! * [`BruteForceIndex`] — exact linear scan. Doubles as the correctness
//!   oracle for recall tests and as the sane default for small snapshots.
//! * [`IvfIndex`] — a cluster-pruned inverted-file index: k-means over
//!   the rows at build time; at query time only the `nprobe` closest
//!   clusters are scanned and candidates are reranked exactly. Classic
//!   IVF-flat, in pure Rust.
//!
//! Distances are squared Euclidean (paper Eq. 5): lower = closer.

use crate::store::EmbeddingStore;
use ehna_tgraph::quant::{LaneBlocks, LANES};
use ehna_tgraph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One search hit: a node and its squared Euclidean distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The matched node.
    pub id: NodeId,
    /// Squared Euclidean distance (lower = closer).
    pub dist: f64,
}

/// How a search arrived at its answer (the `--explain` payload).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchInfo {
    /// Cluster ids probed, closest centroid first (empty for brute force).
    pub probed: Vec<usize>,
    /// Number of candidate rows scored exactly.
    pub scanned: usize,
}

/// A k-nearest-neighbor index over the store's rows.
pub trait KnnIndex: Send + Sync {
    /// The `k` nearest rows to `query`, ascending by distance (ties by
    /// node id). Returns fewer than `k` when the store is small.
    fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_explained(query, k).0
    }

    /// [`KnnIndex::search`] plus diagnostics.
    fn search_explained(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchInfo);

    /// Short label for logs and the stats endpoint.
    fn kind(&self) -> &'static str;

    /// Clusters probed per query for approximate indexes; `None` for
    /// exact ones (brute force probes nothing). Surfaced in stats and
    /// per-shard `explain` so operators can see each shard's recall
    /// knob without shelling into the shard host.
    fn nprobe(&self) -> Option<usize> {
        None
    }
}

/// Keep the `k` smallest (dist, id) pairs seen so far.
struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

struct HeapEntry {
    dist: f64,
    id: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on (dist, id): the worst retained candidate on top.
        self.dist.total_cmp(&other.dist).then_with(|| self.id.0.cmp(&other.id.0))
    }
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    #[inline]
    fn push(&mut self, id: NodeId, dist: f64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry { dist, id });
        } else if let Some(worst) = self.heap.peek() {
            if (HeapEntry { dist, id }).cmp(worst) == Ordering::Less {
                self.heap.pop();
                self.heap.push(HeapEntry { dist, id });
            }
        }
    }

    /// Worst retained distance, if already holding `k` candidates.
    #[inline]
    fn bound(&self) -> Option<f64> {
        (self.heap.len() == self.k).then(|| self.heap.peek().expect("non-empty").dist)
    }

    fn into_sorted(self) -> Vec<Neighbor> {
        let mut out: Vec<Neighbor> =
            self.heap.into_iter().map(|e| Neighbor { id: e.id, dist: e.dist }).collect();
        out.sort_by(|a, b| a.dist.total_cmp(&b.dist).then_with(|| a.id.0.cmp(&b.id.0)));
        out
    }
}

/// Exact linear-scan index — the correctness oracle.
#[derive(Debug)]
pub struct BruteForceIndex {
    store: Arc<EmbeddingStore>,
}

impl BruteForceIndex {
    /// Index every row of `store`.
    pub fn new(store: Arc<EmbeddingStore>) -> Self {
        BruteForceIndex { store }
    }
}

impl KnnIndex for BruteForceIndex {
    fn search_explained(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchInfo) {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        let n = self.store.num_nodes();
        let scorer = self.store.scorer(query);
        let mut top = TopK::new(k);
        for v in 0..n {
            top.push(NodeId(v as u32), scorer.dist(v));
        }
        (top.into_sorted(), SearchInfo { probed: Vec::new(), scanned: n })
    }

    fn kind(&self) -> &'static str {
        "brute"
    }
}

/// Build-time settings of the [`IvfIndex`].
#[derive(Debug, Clone)]
pub struct IvfConfig {
    /// Number of k-means clusters; `None` picks `sqrt(n)` (clamped to
    /// `[1, n]`).
    pub num_clusters: Option<usize>,
    /// Clusters probed per query (clamped to the cluster count).
    pub nprobe: usize,
    /// Lloyd iterations at build time.
    pub kmeans_iters: usize,
    /// RNG seed for centroid initialization.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig { num_clusters: None, nprobe: 8, kmeans_iters: 10, seed: 0x1DF }
    }
}

/// Cluster-pruned inverted-file index with exact reranking.
///
/// Each inverted list keeps its rows' codes in a [`LaneBlocks`] copy
/// (dimension-major blocks of [`LANES`] rows), so a probe scores
/// [`LANES`] candidates per kernel call, bit-identical to per-row
/// [`RowDistance::dist`](crate::RowDistance::dist). The copy costs one
/// extra set of code bytes per indexed row.
#[derive(Debug)]
pub struct IvfIndex {
    store: Arc<EmbeddingStore>,
    /// `num_clusters` centroids, blocked.
    centroids: LaneBlocks,
    lists: Vec<IvfList>,
    nprobe: usize,
}

/// One inverted list: its row ids (ascending) and their codes, blocked in
/// the same order.
#[derive(Debug)]
struct IvfList {
    ids: Vec<u32>,
    blocks: LaneBlocks,
}

impl IvfIndex {
    /// Run k-means over the store's rows and build the inverted lists.
    pub fn build(store: Arc<EmbeddingStore>, config: IvfConfig) -> Self {
        let n = store.num_nodes();
        let dim = store.dim();
        let c = config
            .num_clusters
            .unwrap_or_else(|| (n as f64).sqrt().round() as usize)
            .clamp(usize::from(n > 0), n.max(1));
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Initialize centroids from c distinct rows (partial Fisher-Yates).
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..c.min(n) {
            let j = rng.gen_range(i..n);
            order.swap(i, j);
        }
        let mut centroids = vec![0.0f32; c * dim];
        for (slot, &row) in order.iter().take(c).enumerate() {
            store.rows().row_into(row, &mut centroids[slot * dim..(slot + 1) * dim]);
        }

        let mut assign = vec![0usize; n];
        let mut row = vec![0.0f32; dim];
        for _ in 0..config.kmeans_iters.max(1) {
            // Assignment and update in one pass over the rows: every row
            // is assigned against the previous pass's centroids and summed
            // in ascending row order, as two separate passes would.
            let blocked = blocked_centroids(&centroids, dim);
            let mut sums = vec![0.0f64; c * dim];
            let mut counts = vec![0usize; c];
            for (v, a) in assign.iter_mut().enumerate() {
                store.rows().row_into(v, &mut row);
                *a = nearest_centroid(&blocked, &row);
                counts[*a] += 1;
                for (s, &x) in sums[*a * dim..(*a + 1) * dim].iter_mut().zip(&row) {
                    *s += x as f64;
                }
            }
            for (cl, &count) in counts.iter().enumerate() {
                if count == 0 {
                    // Reseed an empty cluster to a random row so every
                    // centroid stays meaningful.
                    if n > 0 {
                        let row = rng.gen_range(0..n);
                        store.rows().row_into(row, &mut centroids[cl * dim..(cl + 1) * dim]);
                    }
                    continue;
                }
                for (cen, &s) in
                    centroids[cl * dim..(cl + 1) * dim].iter_mut().zip(&sums[cl * dim..])
                {
                    *cen = (s / count as f64) as f32;
                }
            }
        }

        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); c];
        for (v, &a) in assign.iter().enumerate() {
            ids[a].push(v as u32);
        }
        let lists =
            ids.into_iter().map(|ids| IvfList { blocks: store.rows().blocks(&ids), ids }).collect();
        IvfIndex {
            centroids: blocked_centroids(&centroids, dim),
            store,
            lists,
            nprobe: config.nprobe.max(1),
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.lists.len()
    }

    /// Clusters probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }
}

/// Row-major `centroids` (rows of `dim`) as lane blocks.
fn blocked_centroids(centroids: &[f32], dim: usize) -> LaneBlocks {
    LaneBlocks::from_f32_rows(dim, centroids.chunks_exact(dim))
}

/// Call `f(cluster, distance)` for every centroid, in centroid order.
fn for_each_centroid(centroids: &LaneBlocks, query: &[f32], mut f: impl FnMut(usize, f64)) {
    let mut lanes = [0.0f64; LANES];
    for b in 0..centroids.num_blocks() {
        centroids.sq_dist_f32(query, b, &mut lanes);
        for (cl, &d) in (b * LANES..centroids.len()).zip(&lanes) {
            f(cl, d);
        }
    }
}

/// Index of the closest centroid (the first on ties).
fn nearest_centroid(centroids: &LaneBlocks, row: &[f32]) -> usize {
    let mut best = (0usize, f64::INFINITY);
    for_each_centroid(centroids, row, |cl, d| {
        if d < best.1 {
            best = (cl, d);
        }
    });
    best.0
}

impl KnnIndex for IvfIndex {
    fn search_explained(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, SearchInfo) {
        assert_eq!(query.len(), self.store.dim(), "query dimension mismatch");
        let c = self.lists.len();
        if c == 0 {
            return (Vec::new(), SearchInfo { probed: Vec::new(), scanned: 0 });
        }
        // Rank centroids by distance, keep the nprobe closest.
        let mut ranked: Vec<(f64, usize)> = Vec::with_capacity(c);
        for_each_centroid(&self.centroids, query, |cl, d| ranked.push((d, cl)));
        let nprobe = self.nprobe.min(c);
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        ranked.truncate(nprobe);

        let scorer = self.store.scorer(query);
        let mut top = TopK::new(k);
        let mut scanned = 0usize;
        let mut dists = [0.0f64; LANES];
        for &(_, cl) in &ranked {
            let list = &self.lists[cl];
            scanned += list.ids.len();
            // The last block is padded; zip drops its padding lanes.
            for (b, ids) in list.ids.chunks(LANES).enumerate() {
                scorer.dist_block(&list.blocks, b, &mut dists);
                for (&v, &d) in ids.iter().zip(&dists) {
                    // `<=`, not `<`: at d == bound the heap's (dist, id)
                    // tie-break must decide, or a tying candidate with a
                    // smaller id gets dropped here and full-probe IVF
                    // stops agreeing with brute force on tie-heavy tables.
                    if top.bound().map_or(true, |bound| d <= bound) {
                        top.push(NodeId(v), d);
                    }
                }
            }
        }
        let probed = ranked.into_iter().map(|(_, cl)| cl).collect();
        (top.into_sorted(), SearchInfo { probed, scanned })
    }

    fn kind(&self) -> &'static str {
        "ivf"
    }

    fn nprobe(&self) -> Option<usize> {
        Some(self.nprobe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::quant::sq_dist_f64;
    use ehna_tgraph::{NodeEmbeddings, QuantFormat, QuantSpec, QuantizedEmbeddings};

    /// `n` points in `clusters` well-separated Gaussian-ish blobs.
    fn blobs(n: usize, clusters: usize, dim: usize, seed: u64) -> Arc<EmbeddingStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        for v in 0..n {
            let blob = v % clusters;
            for d in 0..dim {
                let center = if d % clusters == blob { 10.0 * (blob + 1) as f32 } else { 0.0 };
                data.push(center + rng.gen_range(-0.5..0.5));
            }
        }
        Arc::new(EmbeddingStore::new(NodeEmbeddings::from_vec(dim, data), None).unwrap())
    }

    fn recall(exact: &[Neighbor], approx: &[Neighbor]) -> f64 {
        if exact.is_empty() {
            return 1.0;
        }
        let hits = approx.iter().filter(|a| exact.iter().any(|e| e.id == a.id)).count();
        hits as f64 / exact.len() as f64
    }

    #[test]
    fn brute_force_finds_exact_neighbors() {
        let store = blobs(50, 5, 4, 1);
        let idx = BruteForceIndex::new(Arc::clone(&store));
        let query = store.row(NodeId(7)).unwrap().to_vec();
        let hits = idx.search(&query, 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, NodeId(7), "self is nearest to itself");
        assert_eq!(hits[0].dist, 0.0);
        assert!(hits.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn k_larger_than_store_returns_all() {
        let store = blobs(4, 2, 3, 2);
        let idx = BruteForceIndex::new(store);
        assert_eq!(idx.search(&[0.0, 0.0, 0.0], 10).len(), 4);
    }

    #[test]
    fn ivf_matches_brute_on_high_nprobe() {
        // Probing every cluster makes IVF exhaustive: results must equal
        // the oracle exactly.
        let store = blobs(300, 6, 8, 3);
        let brute = BruteForceIndex::new(Arc::clone(&store));
        let cfg = IvfConfig { num_clusters: Some(10), nprobe: 10, ..Default::default() };
        let ivf = IvfIndex::build(Arc::clone(&store), cfg);
        for probe in [0usize, 13, 250] {
            let q = store.row(NodeId(probe as u32)).unwrap().to_vec();
            let e = brute.search(&q, 5);
            let a = ivf.search(&q, 5);
            assert_eq!(e.len(), a.len());
            for (x, y) in e.iter().zip(&a) {
                assert_eq!(x.id, y.id);
                assert!((x.dist - y.dist).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ivf_recall_is_high_on_clustered_data() {
        let store = blobs(2000, 8, 16, 4);
        let brute = BruteForceIndex::new(Arc::clone(&store));
        let cfg = IvfConfig { num_clusters: Some(32), nprobe: 8, ..Default::default() };
        let ivf = IvfIndex::build(Arc::clone(&store), cfg);
        let mut total = 0.0;
        let probes = 50;
        for i in 0..probes {
            let q = store.row(NodeId((i * 37) as u32)).unwrap().to_vec();
            total += recall(&brute.search(&q, 10), &ivf.search(&q, 10));
        }
        let avg = total / probes as f64;
        assert!(avg >= 0.95, "avg recall {avg:.3} < 0.95");
    }

    #[test]
    fn ivf_scans_fewer_rows_than_brute() {
        let store = blobs(2000, 8, 16, 5);
        let cfg = IvfConfig { num_clusters: Some(40), nprobe: 4, ..Default::default() };
        let ivf = IvfIndex::build(Arc::clone(&store), cfg);
        let q = store.row(NodeId(11)).unwrap().to_vec();
        let (hits, info) = ivf.search_explained(&q, 10);
        assert!(!hits.is_empty());
        assert_eq!(info.probed.len(), 4);
        assert!(
            info.scanned < store.num_nodes() / 2,
            "pruning ineffective: scanned {} of {}",
            info.scanned,
            store.num_nodes()
        );
    }

    #[test]
    fn empty_store_searches_cleanly() {
        let store = Arc::new(EmbeddingStore::new(NodeEmbeddings::zeros(0, 3), None).unwrap());
        let brute = BruteForceIndex::new(Arc::clone(&store));
        assert!(brute.search(&[0.0; 3], 5).is_empty());
        let ivf = IvfIndex::build(store, IvfConfig::default());
        assert!(ivf.search(&[0.0; 3], 5).is_empty());
    }

    #[test]
    fn topk_breaks_distance_ties_by_id() {
        let store = Arc::new(
            EmbeddingStore::new(NodeEmbeddings::from_vec(1, vec![1.0, 1.0, 1.0, 1.0]), None)
                .unwrap(),
        );
        let idx = BruteForceIndex::new(store);
        let hits = idx.search(&[1.0], 2);
        assert_eq!(hits.iter().map(|h| h.id.0).collect::<Vec<_>>(), vec![0, 1]);
    }

    /// The per-row build the blocked one must reproduce bit for bit:
    /// row-major centroids scored one `sq_dist_f64` at a time, with
    /// separate assignment and update passes.
    fn reference_build(store: &EmbeddingStore, config: &IvfConfig) -> (Vec<f32>, Vec<Vec<u32>>) {
        let (n, dim) = (store.num_nodes(), store.dim());
        let c = config
            .num_clusters
            .unwrap_or_else(|| (n as f64).sqrt().round() as usize)
            .clamp(usize::from(n > 0), n.max(1));
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..c.min(n) {
            let j = rng.gen_range(i..n);
            order.swap(i, j);
        }
        let mut centroids = vec![0.0f32; c * dim];
        for (slot, &row) in order.iter().take(c).enumerate() {
            centroids[slot * dim..(slot + 1) * dim].copy_from_slice(&store.rows().row(row));
        }
        let nearest = |centroids: &[f32], row: &[f32]| {
            let mut best = (0usize, f64::INFINITY);
            for (cl, cen) in centroids.chunks_exact(dim).enumerate() {
                let d = sq_dist_f64(row, cen);
                if d < best.1 {
                    best = (cl, d);
                }
            }
            best.0
        };
        let mut assign = vec![0usize; n];
        for _ in 0..config.kmeans_iters.max(1) {
            for (v, a) in assign.iter_mut().enumerate() {
                *a = nearest(&centroids, &store.rows().row(v));
            }
            let mut sums = vec![0.0f64; c * dim];
            let mut counts = vec![0usize; c];
            for (v, &a) in assign.iter().enumerate() {
                counts[a] += 1;
                let row = store.rows().row(v);
                for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(row.iter()) {
                    *s += x as f64;
                }
            }
            for (cl, &count) in counts.iter().enumerate() {
                if count == 0 {
                    if n > 0 {
                        let row = rng.gen_range(0..n);
                        centroids[cl * dim..(cl + 1) * dim].copy_from_slice(&store.rows().row(row));
                    }
                    continue;
                }
                for (cen, &s) in
                    centroids[cl * dim..(cl + 1) * dim].iter_mut().zip(&sums[cl * dim..])
                {
                    *cen = (s / count as f64) as f32;
                }
            }
        }
        let mut lists = vec![Vec::new(); c];
        for (v, &a) in assign.iter().enumerate() {
            lists[a].push(v as u32);
        }
        (centroids, lists)
    }

    #[test]
    fn blocked_build_matches_per_row_reference() {
        // Rows with only three distinct values make many centroids start
        // equal, so tie-breaking (first centroid wins) and empty-cluster
        // reseeding are both exercised.
        let ties = NodeEmbeddings::from_vec(3, (0..150 * 3).map(|i| (i / 3 % 3) as f32).collect());
        let blobs_dense = blobs(300, 6, 13, 3);
        let int8 = QuantizedEmbeddings::encode(
            blobs_dense.dense().unwrap(),
            &QuantSpec::new(QuantFormat::Int8),
        )
        .unwrap();
        let stores = [
            Arc::new(EmbeddingStore::new(ties, None).unwrap()),
            Arc::clone(&blobs_dense),
            Arc::new(EmbeddingStore::from_quant(int8, None).unwrap()),
        ];
        for store in stores {
            let dim = store.dim();
            for clusters in [1, 7, 16, 17, 40] {
                let cfg = IvfConfig {
                    num_clusters: Some(clusters),
                    nprobe: 5,
                    kmeans_iters: 4,
                    ..Default::default()
                };
                let (centroids, lists) = reference_build(&store, &cfg);
                let ivf = IvfIndex::build(Arc::clone(&store), cfg);
                assert_eq!(
                    ivf.centroids,
                    blocked_centroids(&centroids, dim),
                    "{clusters} clusters"
                );
                assert_eq!(ivf.lists.len(), lists.len());
                for (list, ids) in ivf.lists.iter().zip(&lists) {
                    assert_eq!(&list.ids, ids, "{clusters} clusters");
                    assert_eq!(list.blocks, store.rows().blocks(ids));
                }
                // The query's centroid ranking follows per-row distances.
                for probe in [0u32, 77, 149] {
                    let q = store.row(NodeId(probe)).unwrap().into_owned();
                    let mut want: Vec<(f64, usize)> = centroids
                        .chunks_exact(dim)
                        .enumerate()
                        .map(|(cl, cen)| (sq_dist_f64(&q, cen), cl))
                        .collect();
                    want.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                    let probed = ivf.search_explained(&q, 3).1.probed;
                    let want: Vec<usize> = want.iter().take(probed.len()).map(|w| w.1).collect();
                    assert_eq!(probed, want, "{clusters} clusters, probe {probe}");
                }
            }
        }
    }
}
