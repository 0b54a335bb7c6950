//! Historical neighborhoods: the bundle of `k` temporal walks per target
//! node that EHNA's two-level aggregation consumes (paper §IV, Figure 3).

use crate::temporal::{TemporalWalk, TemporalWalkConfig, TemporalWalker};
use ehna_tgraph::{NodeId, TemporalGraph, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The historical neighborhood of one target node at one reference time:
/// the nodes and interactions traversed by `k` temporal random walks
/// initiated at the target.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoricalNeighborhood {
    /// The node whose history was probed.
    pub target: NodeId,
    /// The reference time (the timestamp of the edge being analyzed).
    pub t_ref: Timestamp,
    /// The sampled walks; each starts at `target`. Walks that could not
    /// leave the target (no history) are kept as singletons so the
    /// aggregator sees a fixed count of `k` walks.
    pub walks: Vec<TemporalWalk>,
}

impl HistoricalNeighborhood {
    /// Whether any walk discovered at least one historical neighbor.
    pub fn has_history(&self) -> bool {
        self.walks.iter().any(|w| !w.is_empty())
    }

    /// All distinct nodes appearing in the neighborhood (excluding the
    /// target itself unless revisited).
    pub fn support(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> =
            self.walks.iter().flat_map(|w| w.nodes[1..].iter().copied()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// Per-position interaction-time sums used by the node-level attention
/// (Eq. 3): for the node at position `j` of `walk`, the sum of
/// `f(t(u,v))` over every walk edge `(u, v)` incident to that node
/// (counting all occurrences of the node in the walk, as the paper's
/// `Σ_{(u,v) in r}` does).
///
/// `f` maps raw timestamps to attention units — the EHNA model passes a
/// span normalizer so the softmax stays in a stable numeric range.
pub fn time_sums(walk: &TemporalWalk, f: impl Fn(Timestamp) -> f64) -> Vec<f64> {
    let n = walk.nodes.len();
    let mut sums = vec![0.0f64; n];
    if n < 2 {
        return sums;
    }
    // Walk edge i (1-based over positions) joins nodes[i-1] and nodes[i]
    // at time times[i].
    for (j, sum) in sums.iter_mut().enumerate() {
        let v = walk.nodes[j];
        let mut s = 0.0;
        for i in 1..n {
            if walk.nodes[i] == v || walk.nodes[i - 1] == v {
                s += f(walk.times[i]);
            }
        }
        *sum = s;
    }
    sums
}

/// Samples [`HistoricalNeighborhood`]s: `k` temporal walks per target.
#[derive(Debug, Clone)]
pub struct NeighborhoodSampler<'g> {
    walker: TemporalWalker<'g>,
    num_walks: usize,
}

impl<'g> NeighborhoodSampler<'g> {
    /// `num_walks` is the paper's `k` (default 10).
    pub fn new(graph: &'g TemporalGraph, config: TemporalWalkConfig, num_walks: usize) -> Self {
        assert!(num_walks >= 1, "need at least one walk");
        NeighborhoodSampler { walker: TemporalWalker::new(graph, config), num_walks }
    }

    /// The underlying walker.
    pub fn walker(&self) -> &TemporalWalker<'g> {
        &self.walker
    }

    /// Number of walks per neighborhood (`k`).
    pub fn num_walks(&self) -> usize {
        self.num_walks
    }

    /// Sample the historical neighborhood of `target` at `t_ref`.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        target: NodeId,
        t_ref: Timestamp,
        rng: &mut R,
    ) -> HistoricalNeighborhood {
        let walks = (0..self.num_walks).map(|_| self.walker.walk(target, t_ref, rng)).collect();
        HistoricalNeighborhood { target, t_ref, walks }
    }

    /// Sample the neighborhood of `target` with a walk stream keyed by the
    /// *node id* rather than a batch position: the same `(seed, target,
    /// t_ref)` always draws the same walks, no matter which other nodes
    /// are sampled alongside it. Inference rests on this: a node embedded
    /// alone reproduces the walks a full pass draws for it, which
    /// position-keyed streams ([`Self::sample_batch`]) cannot guarantee.
    pub fn sample_keyed(
        &self,
        target: NodeId,
        t_ref: Timestamp,
        seed: u64,
    ) -> HistoricalNeighborhood {
        self.sample(target, t_ref, &mut item_rng(seed, target.index()))
    }

    /// [`Self::sample_keyed`] over a batch of `(target, t_ref)` pairs across
    /// `threads` scoped worker threads: item `(v, t)` draws the walks
    /// `sample_keyed(v, t, seed)` draws, whatever the batch around it.
    pub fn sample_batch_keyed(
        &self,
        targets: &[(NodeId, Timestamp)],
        threads: usize,
        seed: u64,
    ) -> Vec<HistoricalNeighborhood> {
        self.sample_batch_with(targets, threads, |_, v| item_rng(seed, v.index()))
    }

    /// Sample neighborhoods for a batch of `(target, t_ref)` pairs across
    /// `threads` scoped worker threads. Deterministic given `seed`
    /// regardless of thread interleaving: each item derives its own RNG
    /// stream from `(seed, index)`.
    pub fn sample_batch(
        &self,
        targets: &[(NodeId, Timestamp)],
        threads: usize,
        seed: u64,
    ) -> Vec<HistoricalNeighborhood> {
        self.sample_batch_at(targets, threads, seed, 0)
    }

    /// Like [`Self::sample_batch`], but item `i` draws from the stream
    /// `(seed, base_index + i)`. Chunked callers pass each chunk's global
    /// offset so a long target list samples exactly the same walks no
    /// matter how it is split into batches (and no chunk repeats another
    /// chunk's streams).
    pub fn sample_batch_at(
        &self,
        targets: &[(NodeId, Timestamp)],
        threads: usize,
        seed: u64,
        base_index: usize,
    ) -> Vec<HistoricalNeighborhood> {
        self.sample_batch_with(targets, threads, |i, _| item_rng(seed, base_index + i))
    }

    /// The threaded batch driver: item `i` targeting `v` draws from
    /// `rng_for(i, v)`, so the result never depends on how the items are
    /// split across threads.
    fn sample_batch_with(
        &self,
        targets: &[(NodeId, Timestamp)],
        threads: usize,
        rng_for: impl Fn(usize, NodeId) -> StdRng + Sync,
    ) -> Vec<HistoricalNeighborhood> {
        let rng_for = &rng_for;
        let sample = move |offset: usize, part: &[(NodeId, Timestamp)]| -> Vec<_> {
            let items = part.iter().enumerate();
            items.map(|(j, &(v, t))| self.sample(v, t, &mut rng_for(offset + j, v))).collect()
        };
        let threads = threads.max(1);
        if threads == 1 || targets.len() < 2 * threads {
            return sample(0, targets);
        }
        let chunk = targets.len().div_ceil(threads);
        std::thread::scope(|s| {
            let parts: Vec<_> = (targets.chunks(chunk).enumerate())
                .map(|(c, part)| s.spawn(move || sample(c * chunk, part)))
                .collect();
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("walk sampler thread panicked"))
                .collect()
        })
    }
}

/// Derive a per-item RNG stream; SplitMix64 over the pair then seed a
/// `StdRng`, so batches are order- and thread-count-independent.
fn item_rng(seed: u64, index: usize) -> StdRng {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;

    fn figure1() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for &(a, bb, t) in &[
            (1u32, 2u32, 2011i64),
            (1, 3, 2012),
            (2, 3, 2011),
            (1, 4, 2013),
            (4, 5, 2014),
            (5, 6, 2015),
            (1, 6, 2016),
            (5, 8, 2016),
            (8, 7, 2017),
            (6, 7, 2017),
            (1, 7, 2018),
        ] {
            b.add_edge(a, bb, t, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn neighborhood_has_k_walks() {
        let g = figure1();
        let s = NeighborhoodSampler::new(&g, TemporalWalkConfig::default(), 7);
        let mut rng = StdRng::seed_from_u64(1);
        let hn = s.sample(NodeId(1), Timestamp(2018), &mut rng);
        assert_eq!(hn.walks.len(), 7);
        assert!(hn.has_history());
        assert!(hn.walks.iter().all(|w| w.nodes[0] == NodeId(1)));
    }

    #[test]
    fn paper_figure2_node5_is_reachable() {
        // The paper's motivating claim: node 5 (never directly linked to
        // node 1) is relevant to the 2018 edge (1,7) through historical
        // paths. Temporal walks from node 1 must be able to reach it.
        let g = figure1();
        let cfg = TemporalWalkConfig { length: 6, ..Default::default() };
        let s = NeighborhoodSampler::new(&g, cfg, 20);
        let mut rng = StdRng::seed_from_u64(2);
        let hn = s.sample(NodeId(1), Timestamp(2018), &mut rng);
        assert!(
            hn.support().contains(&NodeId(5)),
            "indirectly-relevant node 5 never visited: {:?}",
            hn.support()
        );
    }

    #[test]
    fn no_history_neighborhood() {
        let g = figure1();
        let s = NeighborhoodSampler::new(&g, TemporalWalkConfig::default(), 3);
        let mut rng = StdRng::seed_from_u64(3);
        let hn = s.sample(NodeId(2), Timestamp(2011), &mut rng);
        assert!(!hn.has_history());
        assert!(hn.support().is_empty());
    }

    #[test]
    fn time_sums_count_incident_edges() {
        let w = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            times: vec![Timestamp(100), Timestamp(50), Timestamp(40)],
        };
        let sums = time_sums(&w, |t| t.raw() as f64);
        // position 0: incident to edge (0,1)@50        => 50
        // position 1: incident to (0,1)@50 + (1,2)@40  => 90
        // position 2: incident to (1,2)@40             => 40
        assert_eq!(sums, vec![50.0, 90.0, 40.0]);
    }

    #[test]
    fn time_sums_merge_repeat_visits() {
        // Walk 0 -> 1 -> 0: node 0 occurs twice; both positions get the
        // full incident sum.
        let w = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1), NodeId(0)],
            times: vec![Timestamp(9), Timestamp(5), Timestamp(4)],
        };
        let sums = time_sums(&w, |t| t.raw() as f64);
        assert_eq!(sums, vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn time_sums_singleton_is_zero() {
        let w = TemporalWalk { nodes: vec![NodeId(3)], times: vec![Timestamp(1)] };
        assert_eq!(time_sums(&w, |t| t.raw() as f64), vec![0.0]);
    }

    #[test]
    fn chunked_sampling_with_offsets_matches_one_batch() {
        let g = figure1();
        let s = NeighborhoodSampler::new(&g, TemporalWalkConfig::default(), 3);
        let targets: Vec<(NodeId, Timestamp)> = (0..17)
            .map(|i| (NodeId(1 + (i % 7) as u32), Timestamp(2014 + (i % 5) as i64)))
            .collect();
        let whole = s.sample_batch(&targets, 1, 31);
        for bs in [1usize, 4, 5, 16, 17, 32] {
            let mut chunked = Vec::new();
            let mut offset = 0;
            for chunk in targets.chunks(bs) {
                chunked.extend(s.sample_batch_at(chunk, 2, 31, offset));
                offset += chunk.len();
            }
            assert_eq!(whole, chunked, "chunk size {bs} changed the walks");
        }
    }

    #[test]
    fn keyed_sampling_is_position_independent() {
        let g = figure1();
        let s = NeighborhoodSampler::new(&g, TemporalWalkConfig::default(), 5);
        let solo = s.sample_keyed(NodeId(5), Timestamp(2017), 42);
        // Same node, same seed, different "surroundings": identical walks.
        for other in [NodeId(1), NodeId(6), NodeId(7)] {
            let _ = s.sample_keyed(other, Timestamp(2017), 42);
            let again = s.sample_keyed(NodeId(5), Timestamp(2017), 42);
            assert_eq!(solo, again);
        }
        // Distinct nodes draw distinct streams.
        let w1 = s.sample_keyed(NodeId(1), Timestamp(2018), 42);
        let w7 = s.sample_keyed(NodeId(7), Timestamp(2018), 42);
        assert_ne!(w1.walks, w7.walks);
    }

    #[test]
    fn keyed_batch_matches_keyed_items_at_any_thread_count() {
        let g = figure1();
        let s = NeighborhoodSampler::new(&g, TemporalWalkConfig::default(), 4);
        let targets: Vec<(NodeId, Timestamp)> = (0..20)
            .map(|i| (NodeId(1 + (i % 7) as u32), Timestamp(2015 + (i % 4) as i64)))
            .collect();
        let items: Vec<_> = targets.iter().map(|&(v, t)| s.sample_keyed(v, t, 7)).collect();
        for threads in [1, 2, 4] {
            assert_eq!(items, s.sample_batch_keyed(&targets, threads, 7), "threads {threads}");
        }
    }

    #[test]
    fn batch_matches_sequential_and_is_thread_invariant() {
        let g = figure1();
        let s = NeighborhoodSampler::new(&g, TemporalWalkConfig::default(), 4);
        let targets: Vec<(NodeId, Timestamp)> = (0..20)
            .map(|i| (NodeId(1 + (i % 7) as u32), Timestamp(2015 + (i % 4) as i64)))
            .collect();
        let seq = s.sample_batch(&targets, 1, 99);
        let par = s.sample_batch(&targets, 4, 99);
        assert_eq!(seq, par);
    }
}
