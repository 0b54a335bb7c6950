//! Walk-equivalence gate: `TemporalWalker::walk` and `Node2VecWalker::walk`
//! sample exactly what the per-candidate form of paper Eq. 2 × Eq. 1
//! samples.
//!
//! The reference loops below evaluate `β(u, w) · K(t_ref, t, w)` candidate
//! by candidate: `kernel.weight` and `has_edge` run for every candidate,
//! with no caching and no shortcut. The library walkers may compute the
//! same weights more cheaply, but every walk must match bit for bit — the
//! same `nodes`, the same `times` — and both RNGs must be in the same
//! state afterwards, so the number and order of draws are pinned too.
//!
//! Inputs are small multigraphs with parallel edges and heavily repeated
//! timestamps, swept over p, q ∈ {0.25, 1, 4} (q = 1 with p ≠ 1 included),
//! all three decay kernels, both walk orders and a tight and a loose
//! candidate cap.

use ehna_tgraph::{GraphBuilder, NodeId, TemporalGraph, Timestamp};
use ehna_walks::{
    DecayKernel, Node2VecConfig, Node2VecWalker, TemporalWalk, TemporalWalkConfig, TemporalWalker,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BIASES: [f64; 3] = [0.25, 1.0, 4.0];
const KERNELS: [DecayKernel; 3] = [
    DecayKernel::Exponential { timescale: 2.0 },
    DecayKernel::Linear { horizon: 4.0 },
    DecayKernel::Uniform,
];
const WEIGHTS: [f64; 3] = [0.5, 1.0, 2.5];

/// A multigraph on at most 10 nodes with timestamps in 0..6, so most
/// neighbour lists hold parallel edges and runs of equal timestamps.
fn build(edges: &[(u32, u32, i64, usize)]) -> Option<TemporalGraph> {
    let mut b = GraphBuilder::new();
    let mut any = false;
    for &(a, c, t, w) in edges {
        if a != c {
            b.add_edge(a, c, t, WEIGHTS[w]).unwrap();
            any = true;
        }
    }
    if any {
        Some(b.build().unwrap())
    } else {
        None
    }
}

/// The most recent `cap` entries of a time-sorted slice.
fn tail<T>(slice: &[T], cap: usize) -> &[T] {
    &slice[slice.len().saturating_sub(cap)..]
}

/// Online weighted selection, one draw per positive finite weight.
fn sample_weighted(weights: impl Iterator<Item = f64>, rng: &mut StdRng) -> Option<usize> {
    let mut total = 0.0f64;
    let mut chosen = None;
    for (i, w) in weights.enumerate() {
        if w <= 0.0 || !w.is_finite() {
            continue;
        }
        total += w;
        if rng.gen::<f64>() < w / total {
            chosen = Some(i);
        }
    }
    chosen
}

/// The temporal walk with the kernel and the adjacency test evaluated for
/// every candidate.
fn reference_temporal_walk(
    g: &TemporalGraph,
    cfg: &TemporalWalkConfig,
    start: NodeId,
    t_ref: Timestamp,
    rng: &mut StdRng,
) -> TemporalWalk {
    let mut nodes = vec![start];
    let mut times = vec![t_ref];
    let first = tail(g.neighbors_before(start, t_ref), cfg.max_candidates);
    let Some(choice) =
        sample_weighted(first.iter().map(|n| cfg.kernel.weight(t_ref, n.t, n.w)), rng)
    else {
        return TemporalWalk { nodes, times };
    };
    let mut prev = start;
    let mut cur = first[choice].node;
    let mut cur_t = first[choice].t;
    nodes.push(cur);
    times.push(cur_t);
    for _ in 1..cfg.length {
        let candidates = if cfg.time_ordered {
            g.neighbors_at_or_before(cur, cur_t)
        } else {
            g.neighbors_before(cur, t_ref)
        };
        let candidates = tail(candidates, cfg.max_candidates);
        if candidates.is_empty() {
            break;
        }
        let weights = candidates.iter().map(|n| {
            let beta = if n.node == prev {
                1.0 / cfg.p
            } else if g.has_edge(prev, n.node) {
                1.0
            } else {
                1.0 / cfg.q
            };
            beta * cfg.kernel.weight(t_ref, n.t, n.w)
        });
        let Some(choice) = sample_weighted(weights, rng) else {
            break;
        };
        prev = cur;
        cur = candidates[choice].node;
        cur_t = candidates[choice].t;
        nodes.push(cur);
        times.push(cur_t);
    }
    TemporalWalk { nodes, times }
}

/// The static node2vec walk with the adjacency test evaluated for every
/// candidate.
fn reference_node2vec_walk(
    g: &TemporalGraph,
    cfg: &Node2VecConfig,
    start: NodeId,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let mut nodes = vec![start];
    let first = g.neighbors(start);
    if first.is_empty() {
        return nodes;
    }
    let mut total = 0.0;
    let mut pick = 0usize;
    for (i, n) in first.iter().enumerate() {
        total += n.w;
        if rng.gen::<f64>() < n.w / total {
            pick = i;
        }
    }
    let mut prev = start;
    let mut cur = first[pick].node;
    nodes.push(cur);
    for _ in 1..cfg.length {
        let nbrs = g.neighbors(cur);
        if nbrs.is_empty() {
            break;
        }
        let mut total = 0.0;
        let mut chosen = None;
        for n in nbrs {
            let beta = if n.node == prev {
                1.0 / cfg.p
            } else if g.has_edge(prev, n.node) {
                1.0
            } else {
                1.0 / cfg.q
            };
            let w = beta * n.w;
            if w <= 0.0 {
                continue;
            }
            total += w;
            if rng.gen::<f64>() < w / total {
                chosen = Some(n.node);
            }
        }
        let Some(next) = chosen else { break };
        prev = cur;
        cur = next;
        nodes.push(cur);
    }
    nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn temporal_walks_match_the_per_candidate_form(
        edges in proptest::collection::vec((0u32..10, 0u32..10, 0i64..6, 0usize..3), 2..80),
        t_ref in 0i64..8,
        seed in 0u64..1_000_000,
    ) {
        let Some(g) = build(&edges) else { return Ok(()) };
        let t_ref = Timestamp(t_ref);
        for p in BIASES {
            for q in BIASES {
                for kernel in KERNELS {
                    for time_ordered in [true, false] {
                        for max_candidates in [2, 512] {
                            let cfg = TemporalWalkConfig {
                                length: 6, p, q, kernel, max_candidates, time_ordered,
                            };
                            let walker = TemporalWalker::new(&g, cfg.clone());
                            let mut lib = StdRng::seed_from_u64(seed);
                            let mut oracle = StdRng::seed_from_u64(seed);
                            for v in g.nodes() {
                                for _ in 0..2 {
                                    let got = walker.walk(v, t_ref, &mut lib);
                                    let want =
                                        reference_temporal_walk(&g, &cfg, v, t_ref, &mut oracle);
                                    prop_assert_eq!(&got.nodes, &want.nodes, "{:?} from {:?}", cfg, v);
                                    prop_assert_eq!(&got.times, &want.times, "{:?} from {:?}", cfg, v);
                                }
                            }
                            prop_assert_eq!(lib.next_u64(), oracle.next_u64(), "draw count {:?}", cfg);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn node2vec_walks_match_the_per_candidate_form(
        edges in proptest::collection::vec((0u32..10, 0u32..10, 0i64..6, 0usize..3), 2..80),
        seed in 0u64..1_000_000,
    ) {
        let Some(g) = build(&edges) else { return Ok(()) };
        for p in BIASES {
            for q in BIASES {
                let cfg = Node2VecConfig { length: 12, walks_per_node: 1, p, q };
                let walker = Node2VecWalker::new(&g, cfg.clone());
                let mut lib = StdRng::seed_from_u64(seed);
                let mut oracle = StdRng::seed_from_u64(seed);
                for v in g.nodes() {
                    for _ in 0..2 {
                        let got = walker.walk(v, &mut lib);
                        let want = reference_node2vec_walk(&g, &cfg, v, &mut oracle);
                        prop_assert_eq!(&got, &want, "p={} q={} from {:?}", p, q, v);
                    }
                }
                prop_assert_eq!(lib.next_u64(), oracle.next_u64(), "draw count p={} q={}", p, q);
            }
        }
    }
}
