//! Finite-difference gradient verification.
//!
//! Every differentiable op in this crate is validated against central
//! differences: build a scalar loss twice per perturbed parameter scalar
//! and compare `(f(x+h) - f(x-h)) / 2h` with the tape gradient. Exposed as
//! a public utility so downstream crates (the EHNA model) can gradcheck
//! their composite forward passes too.

use crate::graph::{Graph, Var};
use crate::store::ParamStore;

/// Verify tape gradients of `build` against central differences on every
/// parameter scalar in `store`.
///
/// `build` must be deterministic and construct the same computation each
/// call (it is invoked `2 * num_scalars + 1` times). Comparison uses a
/// relative-or-absolute tolerance: `|a - n| <= tol * max(1, |a|, |n|)`.
///
/// # Errors
/// Returns a description of the first mismatching scalar.
pub fn check_grads(
    store: &mut ParamStore,
    mut build: impl FnMut(&mut Graph, &ParamStore) -> Var,
    h: f32,
    tol: f32,
) -> Result<(), String> {
    // Analytic pass.
    store.zero_grads();
    let mut g = Graph::new();
    let loss = build(&mut g, store);
    if loss.rows() != 1 || loss.cols() != 1 {
        return Err("loss must be scalar".into());
    }
    g.backward(loss);
    g.write_grads(store);
    let analytic: Vec<Vec<f32>> = store.ids().map(|id| store.grad(id).to_vec()).collect();

    let eval = |store: &ParamStore, build: &mut dyn FnMut(&mut Graph, &ParamStore) -> Var| {
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.value(loss)[0] as f64
    };

    for id in store.ids().collect::<Vec<_>>() {
        for (j, &a) in analytic[id.index()].iter().enumerate() {
            let orig = store.value(id)[j];
            store.value_mut(id)[j] = orig + h;
            let up = eval(store, &mut build);
            store.value_mut(id)[j] = orig - h;
            let down = eval(store, &mut build);
            store.value_mut(id)[j] = orig;
            let numeric = ((up - down) / (2.0 * h as f64)) as f32;
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            if (a - numeric).abs() > tol * denom {
                return Err(format!(
                    "param '{}' [{}]: analytic {a:.6} vs numeric {numeric:.6}",
                    store.name(id),
                    j
                ));
            }
        }
    }
    store.zero_grads();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm1d, Linear, LstmCell, StackedLstm};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_param(
        store: &mut ParamStore,
        name: &str,
        rows: usize,
        cols: usize,
        rng: &mut StdRng,
    ) -> crate::ParamId {
        let v: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.add_param(name, rows, cols, v)
    }

    fn expect_ok(store: &mut ParamStore, build: impl FnMut(&mut Graph, &ParamStore) -> Var) {
        check_grads(store, build, 1e-2, 3e-2).unwrap();
    }

    #[test]
    fn matmul_grads() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 3, 4, &mut rng);
        let b = rand_param(&mut store, "b", 4, 2, &mut rng);
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            let c = g.matmul(av, bv);
            let c2 = g.square(c);
            g.sum_all(c2)
        });
    }

    #[test]
    fn elementwise_grads() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 2, 3, &mut rng);
        let b = rand_param(&mut store, "b", 2, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            let sum = g.add(av, bv);
            let dif = g.sub(av, bv);
            let prd = g.mul(sum, dif);
            g.sum_all(prd)
        });
    }

    #[test]
    fn broadcast_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 3, 4, &mut rng);
        let row = rand_param(&mut store, "row", 1, 4, &mut rng);
        let col = rand_param(&mut store, "col", 3, 1, &mut rng);
        for v in store.value_mut(row) {
            *v = v.abs() + 1.0;
        }
        for v in store.value_mut(col) {
            *v = v.abs() + 1.0;
        }
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let rv = g.param(s, row);
            let cv = g.param(s, col);
            let x = g.add_rowb(av, rv);
            let x = g.mul_colb(x, cv);
            let x = g.div_colb(x, cv);
            let x2 = g.square(x);
            g.sum_all(x2)
        });
    }

    #[test]
    fn unary_grads() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 2, 4, &mut rng);
        // Shift positive for sqrt; keep away from relu kink at 0.
        for v in store.value_mut(a) {
            *v = v.abs() + 0.7;
        }
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let sq = g.sqrt(av);
            let r = g.relu(sq);
            let sc = g.scale(r, -1.3);
            let ad = g.add_scalar(sc, 0.2);
            let q = g.square(ad);
            g.mean_all(q)
        });
    }

    #[test]
    fn reduction_grads() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 3, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let r = g.sum_rows(av);
            let mc = g.mean_cols(av);
            let r2 = g.square(r);
            let mc2 = g.square(mc);
            let s1 = g.sum_all(r2);
            let s2 = g.sum_all(mc2);
            g.add(s1, s2)
        });
    }

    #[test]
    fn softmax_grads() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 2, 5, &mut rng);
        let w = rand_param(&mut store, "w", 2, 5, &mut rng);
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let wv = g.param(s, w);
            let sm = g.softmax_rows(av);
            let weighted = g.mul(sm, wv);
            g.sum_all(weighted)
        });
    }

    #[test]
    fn concat_slice_grads() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let a = rand_param(&mut store, "a", 2, 3, &mut rng);
        let b = rand_param(&mut store, "b", 2, 2, &mut rng);
        expect_ok(&mut store, |g, s| {
            let av = g.param(s, a);
            let bv = g.param(s, b);
            let cat = g.concat_cols(av, bv);
            let stacked = g.concat_rows(&[cat, cat]);
            let sl = g.slice_cols(stacked, 1, 4);
            let sr = g.slice_rows(sl, 1, 3);
            let sq = g.square(sr);
            g.sum_all(sq)
        });
    }

    #[test]
    fn select_rows_grads() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 4, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let sel = g.select_rows(xv, &[3, 0, 0, 2]);
            let sq = g.square(sel);
            g.sum_all(sq)
        });
    }

    #[test]
    fn gather_grads() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let emb = rand_param(&mut store, "emb", 5, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let rows = g.gather(s, emb, &[0, 2, 2, 4]);
            let sq = g.square(rows);
            g.sum_all(sq)
        });
    }

    #[test]
    fn linear_layer_grads() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 3, 2, &mut rng);
        let x = rand_param(&mut store, "x", 4, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let y = lin.forward(g, s, xv);
            let y2 = g.square(y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn lstm_cell_grads() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 2, &mut rng);
        let x0 = rand_param(&mut store, "x0", 2, 3, &mut rng);
        let x1 = rand_param(&mut store, "x1", 2, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let a = g.param(s, x0);
            let b = g.param(s, x1);
            let h = cell.forward_sequence(g, s, &[a, b]);
            let h2 = g.square(h);
            g.sum_all(h2)
        });
    }

    #[test]
    fn stacked_lstm_grads() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let stack = StackedLstm::new(&mut store, "s", 2, 2, 2, &mut rng);
        let x0 = rand_param(&mut store, "x0", 3, 2, &mut rng);
        expect_ok(&mut store, |g, s| {
            let a = g.param(s, x0);
            let h = stack.forward_sequence(g, s, &[a, a]);
            let h2 = g.square(h);
            g.sum_all(h2)
        });
    }

    #[test]
    fn batchnorm_eval_grads() {
        // Train-mode BN mutates running stats inside build, so gradcheck
        // uses eval mode (fixed statistics) where build is pure.
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 3);
        let x = rand_param(&mut store, "x", 4, 3, &mut rng);
        {
            // Seed running stats with one training pass.
            let mut g = Graph::new();
            let xv = g.param(&store, x);
            bn.forward_train(&mut g, &store, xv);
        }
        let bn = bn;
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let y = bn.forward_eval(g, s, xv);
            let y2 = g.square(y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn l2_normalize_grads() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 3, 4, &mut rng);
        let w = rand_param(&mut store, "w", 3, 4, &mut rng);
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let wv = g.param(s, w);
            let n = g.l2_normalize_rows(xv, 1e-6);
            let p = g.mul(n, wv);
            g.sum_all(p)
        });
    }

    // --- Fused-kernel ops, checked directly (not through layers) ---

    #[test]
    fn fused_affine_grads() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 3, 5, &mut rng);
        let w = rand_param(&mut store, "w", 5, 4, &mut rng);
        let b = rand_param(&mut store, "b", 1, 4, &mut rng);
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let wv = g.param(s, w);
            let bv = g.param(s, b);
            let y = g.affine(xv, wv, bv);
            let y2 = g.square(y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn fused_affine2_grads() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 2, 3, &mut rng);
        let wx = rand_param(&mut store, "wx", 3, 4, &mut rng);
        let h = rand_param(&mut store, "h", 2, 5, &mut rng);
        let wh = rand_param(&mut store, "wh", 5, 4, &mut rng);
        let b = rand_param(&mut store, "b", 1, 4, &mut rng);
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let wxv = g.param(s, wx);
            let hv = g.param(s, h);
            let whv = g.param(s, wh);
            let bv = g.param(s, b);
            let y = g.affine2(xv, wxv, hv, whv, bv);
            let y2 = g.square(y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn fused_lstm_step_grads() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut store = ParamStore::new();
        // pre-activations [b, 4h] and previous cell [b, h] with h = 3.
        let pre = rand_param(&mut store, "pre", 2, 12, &mut rng);
        let cp = rand_param(&mut store, "cp", 2, 3, &mut rng);
        expect_ok(&mut store, |g, s| {
            let pv = g.param(s, pre);
            let cv = g.param(s, cp);
            let hc = g.lstm_step(pv, cv);
            let sq = g.square(hc);
            g.sum_all(sq)
        });
    }

    #[test]
    fn fused_batchnorm_train_grads() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 6, 3, &mut rng);
        let gamma = rand_param(&mut store, "gamma", 1, 3, &mut rng);
        let beta = rand_param(&mut store, "beta", 1, 3, &mut rng);
        for v in store.value_mut(gamma) {
            *v = v.abs() + 0.5;
        }
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let gv = g.param(s, gamma);
            let bv = g.param(s, beta);
            let y = g.batchnorm_train(xv, gv, bv, 1e-5);
            let y2 = g.square(y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn fused_batchnorm_eval_grads() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 4, 3, &mut rng);
        let gamma = rand_param(&mut store, "gamma", 1, 3, &mut rng);
        let beta = rand_param(&mut store, "beta", 1, 3, &mut rng);
        let mean = vec![0.2, -0.1, 0.05];
        let var = vec![0.9, 1.3, 0.7];
        expect_ok(&mut store, move |g, s| {
            let xv = g.param(s, x);
            let gv = g.param(s, gamma);
            let bv = g.param(s, beta);
            let y = g.batchnorm_eval(xv, gv, bv, &mean, &var, 1e-5);
            let y2 = g.square(y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn fused_softmax_rows_grads() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 3, 6, &mut rng);
        let w = rand_param(&mut store, "w", 3, 6, &mut rng);
        expect_ok(&mut store, |g, s| {
            let xv = g.param(s, x);
            let wv = g.param(s, w);
            let sm = g.softmax_rows(xv);
            let p = g.mul(sm, wv);
            g.sum_all(p)
        });
    }

    #[test]
    fn threaded_reduction_grads_match_at_one_and_four_threads() {
        // The batch dimension (140 > TN_CHUNK = 128) forces the chunked
        // tree reduction in the weight-gradient GEMM; gradients must both
        // pass finite differences and be bit-identical across thread
        // counts.
        let _guard = crate::kernels::TEST_THREAD_LOCK.lock().unwrap();
        let mut rng = StdRng::seed_from_u64(26);
        let mut store = ParamStore::new();
        let x = rand_param(&mut store, "x", 140, 3, &mut rng);
        let w = rand_param(&mut store, "w", 3, 2, &mut rng);
        let b = rand_param(&mut store, "b", 1, 2, &mut rng);
        let build = |g: &mut Graph, s: &ParamStore| {
            let xv = g.param(s, x);
            let wv = g.param(s, w);
            let bv = g.param(s, b);
            let y = g.affine(xv, wv, bv);
            let y2 = g.square(y);
            g.sum_all(y2)
        };
        let mut grads_per_threads = Vec::new();
        for t in [1usize, 4] {
            crate::kernels::set_threads(t);
            check_grads(&mut store, build, 1e-2, 3e-2).unwrap();
            let mut g = Graph::new();
            let loss = build(&mut g, &store);
            g.backward(loss);
            store.zero_grads();
            g.write_grads(&mut store);
            let snap: Vec<Vec<u32>> = store
                .ids()
                .map(|id| store.grad(id).iter().map(|v| v.to_bits()).collect())
                .collect();
            grads_per_threads.push(snap);
        }
        crate::kernels::set_threads(1);
        assert_eq!(
            grads_per_threads[0], grads_per_threads[1],
            "gradients must be bit-identical at 1 vs 4 threads"
        );
    }
}
