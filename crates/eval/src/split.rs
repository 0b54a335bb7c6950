//! Temporal train/test splitting and negative pair sampling (§V-E setup).

use ehna_tgraph::{NodeId, TemporalGraph};
use rand::Rng;
use std::collections::HashSet;

/// A temporal split: the training graph plus held-out future edges.
#[derive(Debug)]
pub struct TemporalSplit {
    /// The network with the held-out era removed (train on this).
    pub train: TemporalGraph,
    /// The removed most-recent edges (the positive prediction targets),
    /// deduplicated to distinct node pairs.
    pub test_edges: Vec<(NodeId, NodeId)>,
    /// The timestamp cutoff: all test edges have `t >= cutoff`.
    pub cutoff: i64,
}

/// Remove the `holdout` fraction (by count) of the most recent edges
/// (paper: 20 %) and return the training graph plus distinct held-out
/// pairs that do not already appear in the training era (a "future link"
/// that already exists is not a prediction target).
///
/// # Panics
/// Panics if `holdout` is not in `(0, 1)` or the split would leave no
/// training edges.
pub fn temporal_split(graph: &TemporalGraph, holdout: f64) -> TemporalSplit {
    assert!(holdout > 0.0 && holdout < 1.0, "holdout must be in (0,1)");
    let m = graph.num_edges();
    let keep = ((1.0 - holdout) * m as f64).round() as usize;
    assert!(keep >= 1, "split leaves no training edges");
    // Cut at a timestamp boundary so equal-time edges are not separated.
    let cutoff = graph.edge(keep.min(m - 1)).t;
    let train = graph.subgraph_before(cutoff).expect("holdout < 1 guarantees training edges");
    let mut train_pairs: HashSet<(NodeId, NodeId)> = HashSet::new();
    for e in train.edges() {
        train_pairs.insert((e.src, e.dst));
    }
    let mut seen: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut test_edges = Vec::new();
    for e in &graph.edges()[train.num_edges()..] {
        let key = (e.src, e.dst);
        if !train_pairs.contains(&key) && seen.insert(key) {
            test_edges.push(key);
        }
    }
    TemporalSplit { train, test_edges, cutoff: cutoff.raw() }
}

/// Sample `count` node pairs that are **not** connected anywhere in
/// `graph` (the negative examples of §V-E). Pairs are distinct and
/// exclude self-loops.
pub fn sample_negative_pairs<R: Rng + ?Sized>(
    graph: &TemporalGraph,
    count: usize,
    rng: &mut R,
) -> Vec<(NodeId, NodeId)> {
    let n = graph.num_nodes() as u32;
    assert!(n >= 2, "need at least two nodes");
    let mut out = Vec::with_capacity(count);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(count);
    let mut guard = 0usize;
    let max_attempts = count.saturating_mul(200).max(10_000);
    while out.len() < count && guard < max_attempts {
        guard += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.contains(&key) {
            continue;
        }
        if graph.has_edge(NodeId(key.0), NodeId(key.1)) {
            continue;
        }
        seen.insert(key);
        out.push((NodeId(key.0), NodeId(key.1)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sequence(n: usize) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for i in 0..n as u32 {
            b.add_edge(i, i + 1, i as i64, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn split_preserves_time_order() {
        let g = sequence(100);
        let s = temporal_split(&g, 0.2);
        assert!(s.train.num_edges() >= 75 && s.train.num_edges() <= 85);
        assert!(s.train.max_time().raw() < s.cutoff);
        assert_eq!(s.test_edges.len(), g.num_edges() - s.train.num_edges());
    }

    #[test]
    fn repeat_pairs_not_in_test() {
        // Pair (0,1) interacts early and late: it must not be a test pair.
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            b.add_edge(i, i + 1, i as i64, 1.0).unwrap();
        }
        b.add_edge(0, 1, 100, 1.0).unwrap();
        let g = b.build().unwrap();
        let s = temporal_split(&g, 0.2);
        assert!(!s.test_edges.contains(&(NodeId(0), NodeId(1))));
    }

    #[test]
    fn equal_time_edges_stay_together() {
        let mut b = GraphBuilder::new();
        for i in 0..10u32 {
            b.add_edge(i, i + 1, (i / 5) as i64, 1.0).unwrap(); // times 0 and 1 only
        }
        let g = b.build().unwrap();
        let s = temporal_split(&g, 0.2);
        // The only possible boundary is between t=0 and t=1.
        assert_eq!(s.train.num_edges(), 5);
    }

    #[test]
    fn negatives_are_really_negative() {
        let g = sequence(50);
        let mut rng = StdRng::seed_from_u64(1);
        let negs = sample_negative_pairs(&g, 100, &mut rng);
        assert_eq!(negs.len(), 100);
        for &(a, b) in &negs {
            assert!(!g.has_edge(a, b), "({a}, {b}) is an edge");
            assert_ne!(a, b);
        }
        // Distinct pairs.
        let set: HashSet<_> = negs.iter().collect();
        assert_eq!(set.len(), negs.len());
    }

    #[test]
    fn negatives_cap_on_dense_graphs() {
        // Complete graph on 4 nodes: no negatives exist.
        let mut b = GraphBuilder::new();
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j, 1, 1.0).unwrap();
            }
        }
        let g = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let negs = sample_negative_pairs(&g, 10, &mut rng);
        assert!(negs.is_empty());
    }

    #[test]
    #[should_panic(expected = "holdout must be in (0,1)")]
    fn bad_holdout_panics() {
        temporal_split(&sequence(10), 1.5);
    }
}
