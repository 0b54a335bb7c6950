//! Property-based invariants of the temporal graph substrate.

use ehna_tgraph::{GraphBuilder, NodeEmbeddings, NodeId, SnapshotView, TemporalGraph, Timestamp};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = TemporalGraph> {
    proptest::collection::vec((0u32..40, 0u32..40, -50i64..50, 0.1f64..10.0), 1..200)
        .prop_filter_map("needs at least one non-loop edge", |edges| {
            let mut b = GraphBuilder::new();
            let mut any = false;
            for (a, bb, t, w) in edges {
                if a != bb {
                    b.add_edge(a, bb, t, w).expect("valid");
                    any = true;
                }
            }
            if any {
                Some(b.build().expect("non-empty"))
            } else {
                None
            }
        })
}

proptest! {
    #[test]
    fn degree_sum_is_twice_edge_count(g in arb_graph()) {
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }

    #[test]
    fn adjacency_is_time_sorted_and_symmetric(g in arb_graph()) {
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0].t <= w[1].t));
            for n in nbrs {
                // The reverse direction must exist with the same time.
                let back = g.neighbors(n.node).iter().any(|m| m.node == v && m.t == n.t);
                prop_assert!(back, "asymmetric adjacency at {v:?}");
                // has_edge agrees with adjacency.
                prop_assert!(g.has_edge(v, n.node));
            }
        }
    }

    #[test]
    fn time_partition_is_exhaustive(g in arb_graph(), t in -60i64..60) {
        let t = Timestamp(t);
        for v in g.nodes() {
            let before = g.neighbors_before(v, t).len();
            let upto = g.neighbors_at_or_before(v, t).len();
            let all = g.neighbors(v).len();
            prop_assert!(before <= upto && upto <= all);
            let after = g.neighbors(v).iter().filter(|n| n.t > t).count();
            prop_assert_eq!(upto + after, all);
        }
    }

    #[test]
    fn snapshot_view_matches_materialized_subgraph(g in arb_graph(), t in -60i64..60) {
        let t = Timestamp(t);
        let view = SnapshotView::strict(&g, t);
        match g.subgraph_before(t) {
            Some(sub) => {
                prop_assert_eq!(view.num_edges(), sub.num_edges());
                for v in g.nodes() {
                    prop_assert_eq!(view.degree(v), sub.degree(v));
                }
            }
            None => prop_assert_eq!(view.num_edges(), 0),
        }
    }

    #[test]
    fn edges_before_is_a_partition_point(g in arb_graph(), t in -60i64..60) {
        let t = Timestamp(t);
        let k = g.edges_before(t);
        prop_assert!(g.edges()[..k].iter().all(|e| e.t < t));
        prop_assert!(g.edges()[k..].iter().all(|e| e.t >= t));
    }

    #[test]
    fn sq_dist_is_a_metric_square(
        dim in 1usize..8,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..3 * dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let e = NodeEmbeddings::from_vec(dim, data);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        prop_assert_eq!(e.sq_dist(a, a), 0.0);
        prop_assert!((e.sq_dist(a, b) - e.sq_dist(b, a)).abs() < 1e-9);
        // Triangle inequality on the *square roots*.
        let (dab, dbc, dac) =
            (e.sq_dist(a, b).sqrt(), e.sq_dist(b, c).sqrt(), e.sq_dist(a, c).sqrt());
        prop_assert!(dac <= dab + dbc + 1e-6);
    }
}
