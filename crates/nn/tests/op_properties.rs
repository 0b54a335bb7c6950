//! Property-based invariants of the autodiff ops: algebraic identities
//! on random inputs, and gradient checks over randomized shapes.

use ehna_nn::gradcheck::check_grads;
use ehna_nn::{Graph, ParamStore};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn rand_vec(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_rows_sum_to_one(m in 1usize..6, n in 1usize..8, seed in 0u64..1000) {
        let mut g = Graph::new();
        let x = g.constant(m, n, rand_vec(m * n, seed, -30.0, 30.0));
        let s = g.softmax_rows(x);
        for row in g.value(s).chunks(n) {
            let total: f32 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4, "row sums to {total}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn l2_normalize_produces_unit_rows(m in 1usize..6, n in 1usize..8, seed in 0u64..1000) {
        let mut g = Graph::new();
        // Keep inputs away from zero rows.
        let data: Vec<f32> = rand_vec(m * n, seed, 0.1, 5.0);
        let x = g.constant(m, n, data);
        let y = g.l2_normalize_rows(x, 1e-8);
        for row in g.value(y).chunks(n) {
            let norm: f32 = row.iter().map(|v| v * v).sum::<f32>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..1000
    ) {
        let mut g = Graph::new();
        let a = g.constant(m, k, rand_vec(m * k, seed, -2.0, 2.0));
        let b1 = g.constant(k, n, rand_vec(k * n, seed + 1, -2.0, 2.0));
        let b2 = g.constant(k, n, rand_vec(k * n, seed + 2, -2.0, 2.0));
        let bsum = g.add(b1, b2);
        let lhs = g.matmul(a, bsum);
        let ab1 = g.matmul(a, b1);
        let ab2 = g.matmul(a, b2);
        let rhs = g.add(ab1, ab2);
        for (x, y) in g.value(lhs).iter().zip(g.value(rhs)) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn concat_slice_inverse(m in 1usize..4, p in 1usize..4, q in 1usize..4, seed in 0u64..1000) {
        let mut g = Graph::new();
        let a = g.constant(m, p, rand_vec(m * p, seed, -1.0, 1.0));
        let b = g.constant(m, q, rand_vec(m * q, seed + 1, -1.0, 1.0));
        let cat = g.concat_cols(a, b);
        let a2 = g.slice_cols(cat, 0, p);
        let b2 = g.slice_cols(cat, p, p + q);
        prop_assert_eq!(g.value(a2), g.value(a));
        prop_assert_eq!(g.value(b2), g.value(b));
    }

    #[test]
    fn reductions_agree(m in 1usize..5, n in 1usize..5, seed in 0u64..1000) {
        let mut g = Graph::new();
        let x = g.constant(m, n, rand_vec(m * n, seed, -3.0, 3.0));
        let sum_node = g.sum_all(x);
        let total = g.value(sum_node)[0];
        let r = g.sum_rows(x);
        let r_sum = g.sum_all(r);
        let via_rows = g.value(r_sum)[0];
        let c = g.mean_cols(x);
        let c_sum = g.sum_all(c);
        let via_cols = g.value(c_sum)[0] * m as f32;
        prop_assert!((total - via_rows).abs() < 1e-3);
        prop_assert!((total - via_cols).abs() < 1e-3);
        let mean_node = g.mean_all(x);
        let mean = g.value(mean_node)[0];
        prop_assert!((mean - total / (m * n) as f32).abs() < 1e-4);
    }

    #[test]
    fn randomized_gradcheck_matmul_softmax_chain(
        m in 1usize..3, k in 2usize..4, seed in 0u64..200
    ) {
        let mut store = ParamStore::new();
        let a = store.add_param("a", m, k, rand_vec(m * k, seed, -0.9, 0.9));
        let w = store.add_param("w", k, k, rand_vec(k * k, seed + 1, -0.9, 0.9));
        let result = check_grads(
            &mut store,
            |g, s| {
                let av = g.param(s, a);
                let wv = g.param(s, w);
                let h = g.matmul(av, wv);
                let sm = g.softmax_rows(h);
                let sq = g.square(sm);
                g.sum_all(sq)
            },
            1e-2,
            5e-2,
        );
        prop_assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn randomized_gradcheck_broadcast_chain(
        m in 2usize..4, n in 2usize..4, seed in 0u64..200
    ) {
        let mut store = ParamStore::new();
        let x = store.add_param("x", m, n, rand_vec(m * n, seed, -0.9, 0.9));
        let row = store.add_param("row", 1, n, rand_vec(n, seed + 1, 0.5, 1.5));
        let col = store.add_param("col", m, 1, rand_vec(m, seed + 2, 0.5, 1.5));
        let result = check_grads(
            &mut store,
            |g, s| {
                let xv = g.param(s, x);
                let rv = g.param(s, row);
                let cv = g.param(s, col);
                let a = g.add_rowb(xv, rv);
                let b = g.mul_colb(a, cv);
                let sm = g.softmax_rows(b);
                let c = g.div_colb(sm, cv);
                let sq = g.square(c);
                g.mean_all(sq)
            },
            1e-2,
            5e-2,
        );
        prop_assert!(result.is_ok(), "{result:?}");
    }
}

#[test]
fn gather_gradients_accumulate_per_occurrence() {
    // Deterministic scatter-add check with heavy index repetition.
    let mut store = ParamStore::new();
    let emb = store.add_param("emb", 3, 2, vec![0.0; 6]);
    let mut g = Graph::new();
    let rows = g.gather(&store, emb, &[2, 2, 2, 0]);
    let loss = g.sum_all(rows);
    g.backward(loss);
    g.write_grads(&mut store);
    assert_eq!(store.grad(emb), &[1.0, 1.0, 0.0, 0.0, 3.0, 3.0]);
}
