//! Graph algorithms used for analysis and validation: Definition 2
//! temporal reachability, connected components, and bipartiteness.

use crate::{NodeId, TemporalGraph, Timestamp};
use std::collections::VecDeque;

/// The *relevant set* of Definition 2: every node `w` that can reach
/// `target` through a chain of historical interactions with
/// non-decreasing timestamps, all strictly before `t_ref`.
///
/// Equivalently (and how it is computed): walk *backwards* from `target`,
/// each hop using an interaction no newer than the previous hop's. This
/// is exactly the set of nodes EHNA's temporal random walk can visit, so
/// the walk tests validate against it.
///
/// Returns `(node, newest admissible arrival time)` pairs including the
/// target itself (paired with `t_ref`).
pub fn temporal_reachable_set(
    graph: &TemporalGraph,
    target: NodeId,
    t_ref: Timestamp,
) -> Vec<(NodeId, Timestamp)> {
    // best[v] = newest timestamp of an interaction chain reaching v;
    // larger is "better" (admits more continuations).
    let mut best: Vec<Option<Timestamp>> = vec![None; graph.num_nodes()];
    best[target.index()] = Some(t_ref);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    queue.push_back(target);
    while let Some(v) = queue.pop_front() {
        let limit = best[v.index()].expect("queued nodes have times");
        // First hop: strictly before t_ref; later hops: <= previous time.
        let nbrs = if v == target && limit == t_ref {
            graph.neighbors_before(v, limit)
        } else {
            graph.neighbors_at_or_before(v, limit)
        };
        for n in nbrs {
            let cand = n.t;
            let better = match best[n.node.index()] {
                None => true,
                Some(old) => cand > old,
            };
            if better {
                best[n.node.index()] = Some(cand);
                queue.push_back(n.node);
            }
        }
    }
    best.iter().enumerate().filter_map(|(i, t)| t.map(|t| (NodeId::from_index(i), t))).collect()
}

/// Connected components of the static projection. Returns
/// `(component_id_per_node, component_count)`; isolated nodes get their
/// own components.
pub fn connected_components(graph: &TemporalGraph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = next;
        queue.push_back(NodeId::from_index(start));
        while let Some(v) = queue.pop_front() {
            for nb in graph.neighbors(v) {
                if comp[nb.node.index()] == u32::MAX {
                    comp[nb.node.index()] = next;
                    queue.push_back(nb.node);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Whether the static projection is two-colorable (bipartite). User–item
/// interaction networks (Tmall, Yelp) are; the EHNA paper's §IV-D
/// prescribes the bidirectional objective (Eq. 7) for exactly these.
pub fn is_bipartite(graph: &TemporalGraph) -> bool {
    let n = graph.num_nodes();
    let mut color: Vec<i8> = vec![-1; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if color[start] != -1 {
            continue;
        }
        color[start] = 0;
        queue.push_back(NodeId::from_index(start));
        while let Some(v) = queue.pop_front() {
            let c = color[v.index()];
            for nb in graph.neighbors(v) {
                let cn = &mut color[nb.node.index()];
                if *cn == -1 {
                    *cn = 1 - c;
                    queue.push_back(nb.node);
                } else if *cn == c {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The paper's Figure 1 network.
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
    fn figure2_relevance_of_node_5() {
        // Before the 2018 edge (1,7): node 5 must be temporally reachable
        // from node 1 (via 6@2016 -> 5@2015, non-increasing backwards).
        let g = figure1();
        let reach = temporal_reachable_set(&g, NodeId(1), Timestamp(2018));
        let nodes: Vec<u32> = reach.iter().map(|(v, _)| v.0).collect();
        assert!(nodes.contains(&5), "node 5 not relevant: {nodes:?}");
        assert!(nodes.contains(&1));
        // Node 0 is isolated: never relevant.
        assert!(!nodes.contains(&0));
    }

    #[test]
    fn early_reference_time_shrinks_relevance() {
        let g = figure1();
        let r2013 = temporal_reachable_set(&g, NodeId(1), Timestamp(2013));
        let nodes: Vec<u32> = r2013.iter().map(|(v, _)| v.0).collect();
        // Only 1, 2, 3 interact before 2013 from node 1's perspective.
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn reachability_respects_time_ordering() {
        // Chain 0-1@10, 1-2@5: from node 0 at t=20 we reach 1 (t=10) and
        // then 2 (5 <= 10 going backwards). But from node 2 at t=20: reach
        // 1 via t=5, then 0 requires t=10 > 5 — NOT admissible.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 10, 1.0).unwrap();
        b.add_edge(1, 2, 5, 1.0).unwrap();
        let g = b.build().unwrap();
        let from0: Vec<u32> =
            temporal_reachable_set(&g, NodeId(0), Timestamp(20)).iter().map(|(v, _)| v.0).collect();
        assert_eq!(from0, vec![0, 1, 2]);
        let from2: Vec<u32> =
            temporal_reachable_set(&g, NodeId(2), Timestamp(20)).iter().map(|(v, _)| v.0).collect();
        assert_eq!(from2, vec![1, 2]);
    }

    #[test]
    fn connected_components_partition() {
        let mut b = GraphBuilder::with_num_nodes(7);
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        b.add_edge(3, 4, 3, 1.0).unwrap();
        let g = b.build().unwrap();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 4); // {0,1,2}, {3,4}, {5}, {6}
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[6]);
    }

    #[test]
    fn bipartite_detection() {
        // Path (bipartite).
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        assert!(is_bipartite(&b.build().unwrap()));
        // Triangle (odd cycle).
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        b.add_edge(0, 2, 3, 1.0).unwrap();
        assert!(!is_bipartite(&b.build().unwrap()));
        // Disconnected mix: square + isolated node stays bipartite.
        let mut b = GraphBuilder::with_num_nodes(5);
        for &(x, y) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            b.add_edge(x, y, 1, 1.0).unwrap();
        }
        assert!(is_bipartite(&b.build().unwrap()));
    }

    #[test]
    fn arrival_times_are_newest_admissible() {
        // Node reachable via two chains keeps the newer arrival time.
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 10, 1.0).unwrap(); // direct, newer
        b.add_edge(0, 2, 8, 1.0).unwrap();
        b.add_edge(2, 1, 3, 1.0).unwrap(); // indirect, older
        let g = b.build().unwrap();
        let reach = temporal_reachable_set(&g, NodeId(0), Timestamp(20));
        let t1 = reach.iter().find(|(v, _)| v.0 == 1).map(|(_, t)| *t).unwrap();
        assert_eq!(t1, Timestamp(10));
    }
}
