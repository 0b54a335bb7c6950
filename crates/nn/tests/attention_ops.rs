//! Gradient and invariant coverage for the temporal-attention op family:
//! Time2Vec and the fused factored temporal attention. Both get a
//! finite-difference gradcheck; the fused attention is also pinned to a
//! naive f64 forward and backward oracle, to its padding and NaN contract,
//! and to a thread-count bit-identity gate (matching the GEMM kernel
//! gates).

use ehna_nn::gradcheck::check_grads;
use ehna_nn::kernels::set_threads;
use ehna_nn::layers::Time2Vec;
use ehna_nn::{Graph, ParamStore, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes tests that toggle the process-global kernel thread budget.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn rand_vec(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

// ------------------------------------------------------------- Time2Vec

#[test]
fn time2vec_rows_have_fixed_energy() {
    // sin² + cos² = 1 per frequency, so every output row has squared
    // norm k · scale² = k · k regardless of the input time.
    let mut g = Graph::new();
    let k = 4usize;
    let pre = g.constant(3, k, rand_vec(3 * k, 7, -20.0, 20.0));
    let enc = g.time2vec(pre);
    assert_eq!((enc.rows(), enc.cols()), (3, 2 * k));
    for row in g.value(enc).chunks(2 * k) {
        let sq: f32 = row.iter().map(|v| v * v).sum();
        assert!((sq - (k * k) as f32).abs() < 1e-3, "row energy {sq}");
    }
}

#[test]
fn time2vec_gradcheck_through_layer() {
    // End to end through the layer: deltas → affine(w, b) → [sin|cos],
    // summed against random weights so every output coordinate matters.
    let mut store = ParamStore::new();
    let t2v = Time2Vec::new(&mut store, "t2v", 8);
    let deltas: Vec<f32> = rand_vec(5, 11, 0.01, 1.0);
    let mix = rand_vec(5 * 8, 12, -1.0, 1.0);
    let result = check_grads(
        &mut store,
        |g, store| {
            let t = g.constant(5, 1, deltas.clone());
            let enc = t2v.forward(g, store, t);
            let w = g.constant(5, 8, mix.clone());
            let prod = g.mul(enc, w);
            g.sum_all(prod)
        },
        1e-3,
        3e-2,
    );
    assert!(result.is_ok(), "{result:?}");
}

// -------------------------------------------- fused temporal attention

/// One fused-op problem: shapes, live prefixes and the seven inputs in
/// argument order (`q`, unit-major `x` and `tv`, `wk`, `kt`, `wv`, `vt`).
#[derive(Clone)]
struct Ta {
    units: usize,
    lmax: usize,
    d: usize,
    tk: usize,
    heads: usize,
    lens: Vec<u32>,
    inputs: [Vec<f32>; 7],
}

impl Ta {
    fn new(units: usize, lmax: usize, d: usize, tk: usize, heads: usize, seed: u64) -> Ta {
        let mut rng = StdRng::seed_from_u64(seed);
        let lens = (0..units).map(|_| rng.gen_range(1..=lmax as u32)).collect();
        let inputs = [
            rand_vec(units * d, 71, -1.0, 1.0),
            rand_vec(units * lmax * d, 72, -1.0, 1.0),
            rand_vec(units * lmax * tk, 73, -1.0, 1.0),
            rand_vec(d * d, 74, -0.5, 0.5),
            rand_vec(tk * d, 75, -0.5, 0.5),
            rand_vec(d * d, 76, -0.5, 0.5),
            rand_vec(tk * d, 77, -0.5, 0.5),
        ];
        Ta { units, lmax, d, tk, heads, lens, inputs }
    }

    /// `(rows, cols)` of each input, in argument order.
    fn shapes(&self) -> [(usize, usize); 7] {
        let (ul, d, tk) = (self.units * self.lmax, self.d, self.tk);
        [(self.units, d), (ul, d), (ul, tk), (d, d), (tk, d), (d, d), (tk, d)]
    }

    /// Run the fused op on a fresh tape and backpropagate the loss
    /// `Σ out ⊙ mix`; returns the tape, the output and the seven inputs.
    fn run(&self, mix: &[f32]) -> (Graph, Var, [Var; 7]) {
        let mut g = Graph::new();
        let shapes = self.shapes();
        let vars: [Var; 7] =
            std::array::from_fn(|i| g.constant(shapes[i].0, shapes[i].1, self.inputs[i].clone()));
        let [q, x, tv, wk, kt, wv, vt] = vars;
        let out = g.temporal_attention(q, x, tv, wk, kt, wv, vt, self.heads, &self.lens);
        let w = g.constant(self.units, self.d, mix.to_vec());
        let prod = g.mul(out, w);
        let loss = g.sum_all(prod);
        g.backward(loss);
        (g, out, vars)
    }

    /// Output and the seven input gradients of [`Ta::run`], as bits.
    fn bits(&self, mix: &[f32]) -> Vec<Vec<u32>> {
        let (g, out, vars) = self.run(mix);
        std::iter::once(g.value(out)).chain(vars.map(|v| g.grad(v))).map(bits).collect()
    }
}

fn bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|x| x.to_bits()).collect()
}

// Naive f64 oracle: materialize `K = x·wk + tv·kt` and `V = x·wv + tv·vt`
// (which the fused op never does), attend per (unit, head) over each live
// prefix, and pull the upstream gradient back by hand.

fn f64s(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// `a (m×k) · b (k×n)`.
fn mm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
        }
    }
    c
}

/// `a (m×k) · bᵀ` with `b` stored `n×k`.
fn mm_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k).map(|p| a[i * k + p] * b[j * k + p]).sum();
        }
    }
    c
}

/// `aᵀ · b (k×n)` with `a` stored `k×m`.
fn mm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            c[i * n + j] = (0..k).map(|p| a[p * m + i] * b[p * n + j]).sum();
        }
    }
    c
}

fn vsum(a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    a.iter().zip(&b).map(|(x, y)| x + y).collect()
}

/// Attention weights of unit `u`, head `h` over its live prefix: scaled
/// dot-product scores, then a max-subtracted softmax.
fn naive_weights(ta: &Ta, u: usize, h: usize, q: &[f64], k: &[f64]) -> Vec<f64> {
    let (d, dh) = (ta.d, ta.d / ta.heads);
    let qh = &q[u * d + h * dh..u * d + (h + 1) * dh];
    let scores: Vec<f64> = (0..ta.lens[u] as usize)
        .map(|t| {
            let row = (u * ta.lmax + t) * d + h * dh;
            let dot: f64 = qh.iter().zip(&k[row..row + dh]).map(|(a, b)| a * b).sum();
            dot / (dh as f64).sqrt()
        })
        .collect();
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.iter().map(|e| e / total).collect()
}

/// Per-unit multi-head attention of `q` over the live prefixes of `k`/`v`.
fn naive_attention(ta: &Ta, q: &[f64], k: &[f64], v: &[f64]) -> Vec<f64> {
    let (d, dh) = (ta.d, ta.d / ta.heads);
    let mut out = vec![0.0f64; ta.units * d];
    for u in 0..ta.units {
        for h in 0..ta.heads {
            for (t, a) in naive_weights(ta, u, h, q, k).into_iter().enumerate() {
                let row = (u * ta.lmax + t) * d + h * dh;
                for j in 0..dh {
                    out[u * d + h * dh + j] += a * v[row + j];
                }
            }
        }
    }
    out
}

/// Backward of [`naive_attention`] for upstream gradient `g`: per unit
/// and head, `dα_t = g_h·v_t`, the softmax Jacobian over the prefix
/// `ds_t = α_t·(dα_t − Σ α·dα)`, then `dq_h += Σ ds_t·k_t/√dh`,
/// `dk_t += ds_t·q_h/√dh` and `dv_t += α_t·g_h`.
fn naive_attention_backward(ta: &Ta, q: &[f64], k: &[f64], v: &[f64], g: &[f64]) -> [Vec<f64>; 3] {
    let (d, dh) = (ta.d, ta.d / ta.heads);
    let scale = 1.0 / (dh as f64).sqrt();
    let (mut dq, mut dk, mut dv) = (vec![0.0; q.len()], vec![0.0; k.len()], vec![0.0; v.len()]);
    for u in 0..ta.units {
        for h in 0..ta.heads {
            let col = u * d + h * dh;
            let rows: Vec<usize> =
                (0..ta.lens[u] as usize).map(|t| (u * ta.lmax + t) * d + h * dh).collect();
            let alpha = naive_weights(ta, u, h, q, k);
            let dalpha: Vec<f64> =
                rows.iter().map(|&r| (0..dh).map(|j| g[col + j] * v[r + j]).sum()).collect();
            let dot: f64 = alpha.iter().zip(&dalpha).map(|(a, da)| a * da).sum();
            for (t, &r) in rows.iter().enumerate() {
                let ds = alpha[t] * (dalpha[t] - dot) * scale;
                for j in 0..dh {
                    dq[col + j] += ds * k[r + j];
                    dk[r + j] += ds * q[col + j];
                    dv[r + j] += alpha[t] * g[col + j];
                }
            }
        }
    }
    [dq, dk, dv]
}

/// The fused op's output and the gradients of its seven inputs under the
/// loss `Σ out ⊙ mix`, all in f64: the attention oracle above, chained
/// through both projections.
fn naive_temporal_attention(ta: &Ta, mix: &[f32]) -> (Vec<f64>, [Vec<f64>; 7]) {
    let [q, x, tv, wk, kt, wv, vt]: [Vec<f64>; 7] = std::array::from_fn(|i| f64s(&ta.inputs[i]));
    let (ul, d, tk) = (ta.units * ta.lmax, ta.d, ta.tk);
    let k = vsum(mm(ul, d, d, &x, &wk), mm(ul, tk, d, &tv, &kt));
    let v = vsum(mm(ul, d, d, &x, &wv), mm(ul, tk, d, &tv, &vt));
    let out = naive_attention(ta, &q, &k, &v);
    let [dq, dk, dv] = naive_attention_backward(ta, &q, &k, &v, &f64s(mix));
    let dx = vsum(mm_nt(ul, d, d, &dk, &wk), mm_nt(ul, d, d, &dv, &wv));
    let dtv = vsum(mm_nt(ul, d, tk, &dk, &kt), mm_nt(ul, d, tk, &dv, &vt));
    let grads = [
        dq,
        dx,
        dtv,
        mm_tn(d, ul, d, &x, &dk),
        mm_tn(tk, ul, d, &tv, &dk),
        mm_tn(d, ul, d, &x, &dv),
        mm_tn(tk, ul, d, &tv, &dv),
    ];
    (out, grads)
}

#[test]
fn temporal_attention_matches_composed_projection_path() {
    // The fused op must agree (to rounding) with what it factors away:
    // K and V materialized in f64, then plain attention over them.
    let ta = Ta::new(6, 4, 8, 6, 2, 79);
    let mix = rand_vec(ta.units * ta.d, 80, -1.0, 1.0);
    let (g, out, _) = ta.run(&mix);
    let (oracle, _) = naive_temporal_attention(&ta, &mix);
    for (idx, (&a, &b)) in g.value(out).iter().zip(&oracle).enumerate() {
        assert!((a as f64 - b).abs() < 1e-4, "element {idx}: fused {a} vs naive {b}");
    }
}

#[test]
fn temporal_attention_backward_matches_composed_projection_path() {
    // Gradients this time: every input's gradient must agree with the
    // hand-derived f64 backward to rounding. Most prefixes span several
    // slots: a one-slot softmax passes no gradient to its score.
    let mut ta = Ta::new(5, 3, 8, 4, 2, 83);
    ta.lens = vec![3, 1, 2, 3, 2];
    let mix = rand_vec(ta.units * ta.d, 84, -1.0, 1.0);
    let (g, _, vars) = ta.run(&mix);
    let (_, oracle) = naive_temporal_attention(&ta, &mix);
    let names = ["q", "x", "tv", "wk", "kt", "wv", "vt"];
    for ((name, var), want) in names.iter().zip(vars).zip(&oracle) {
        for (idx, (&a, &b)) in g.grad(var).iter().zip(want).enumerate() {
            assert!((a as f64 - b).abs() < 1e-3, "d{name}[{idx}]: fused {a} vs naive {b}");
        }
    }
}

#[test]
fn temporal_attention_padding_is_inert_and_nan_stays_in_its_unit() {
    let mut clean = Ta::new(6, 4, 8, 6, 2, 0);
    clean.lens = vec![1, 4, 2, 3, 1, 4];
    let (lmax, d, tk) = (clean.lmax, clean.d, clean.tk);
    let mix = rand_vec(clean.units * d, 122, -1.0, 1.0);
    // Every padded slot of `x` and `tv`: zeros in one copy, NaN and ±inf
    // in the other. Output and every gradient must match bit for bit.
    let mut poisoned = clean.clone();
    let junk = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (u, &len) in clean.lens.iter().enumerate() {
        for t in len as usize..lmax {
            let slot = u * lmax + t;
            for (input, w) in [(1, d), (2, tk)] {
                let span = slot * w..(slot + 1) * w;
                clean.inputs[input][span.clone()].fill(0.0);
                for (j, v) in poisoned.inputs[input][span].iter_mut().enumerate() {
                    *v = junk[j % 3];
                }
            }
        }
    }
    assert_eq!(clean.bits(&mix), poisoned.bits(&mix), "padding reached the output or a gradient");

    // A NaN in one unit's live slot poisons that unit's output only.
    let sick = 2;
    let mut nan = clean.clone();
    nan.inputs[1][(sick * lmax + 1) * d] = f32::NAN;
    let (gc, oc, _) = clean.run(&mix);
    let (gn, on, _) = nan.run(&mix);
    for (u, (rc, rn)) in gc.value(oc).chunks(d).zip(gn.value(on).chunks(d)).enumerate() {
        if u == sick {
            assert!(rn.iter().all(|v| v.is_nan()), "unit {u} output {rn:?} hid a live NaN");
        } else {
            assert_eq!(bits(rc), bits(rn), "NaN in unit {sick} leaked into unit {u}");
        }
    }
}

#[test]
fn temporal_attention_gradcheck() {
    let (units, lmax, d, tk, heads) = (3usize, 3usize, 4usize, 4usize, 2usize);
    let lens = vec![1u32, 3, 2];
    let mut store = ParamStore::new();
    let q = store.add_param("q", units, d, rand_vec(units * d, 91, -1.0, 1.0));
    let x = store.add_param("x", units * lmax, d, rand_vec(units * lmax * d, 92, -1.0, 1.0));
    let tv = store.add_param("tv", units * lmax, tk, rand_vec(units * lmax * tk, 93, -1.0, 1.0));
    let wk = store.add_param("wk", d, d, rand_vec(d * d, 94, -0.5, 0.5));
    let kt = store.add_param("kt", tk, d, rand_vec(tk * d, 95, -0.5, 0.5));
    let wv = store.add_param("wv", d, d, rand_vec(d * d, 96, -0.5, 0.5));
    let vt = store.add_param("vt", tk, d, rand_vec(tk * d, 97, -0.5, 0.5));
    let mix = rand_vec(units * d, 98, -1.0, 1.0);
    let result = check_grads(
        &mut store,
        |g, store| {
            let inputs = [q, x, tv, wk, kt, wv, vt].map(|p| g.param(store, p));
            let [qv, xv, tvv, wkv, ktv, wvv, vtv] = inputs;
            let out = g.temporal_attention(qv, xv, tvv, wkv, ktv, wvv, vtv, heads, &lens);
            let w = g.constant(units, d, mix.clone());
            let prod = g.mul(out, w);
            g.sum_all(prod)
        },
        1e-2,
        3e-2,
    );
    assert!(result.is_ok(), "{result:?}");
}

#[test]
fn temporal_attention_padding_gets_zero_gradient() {
    // Inputs and time encodings past each unit's prefix must receive
    // exactly zero gradient — the node-0 padding guarantee, again.
    let (units, lmax, d, tk, heads) = (2usize, 3usize, 4usize, 4usize, 2usize);
    let lens = vec![1u32, 2];
    let mut store = ParamStore::new();
    let x = store.add_param("x", units * lmax, d, rand_vec(units * lmax * d, 101, -1.0, 1.0));
    let tv = store.add_param("tv", units * lmax, tk, rand_vec(units * lmax * tk, 102, -1.0, 1.0));
    let mut g = Graph::new();
    let qv = g.constant(units, d, rand_vec(units * d, 103, -1.0, 1.0));
    let xv = g.param(&store, x);
    let tvv = g.param(&store, tv);
    let wkv = g.constant(d, d, rand_vec(d * d, 104, -0.5, 0.5));
    let ktv = g.constant(tk, d, rand_vec(tk * d, 105, -0.5, 0.5));
    let wvv = g.constant(d, d, rand_vec(d * d, 106, -0.5, 0.5));
    let vtv = g.constant(tk, d, rand_vec(tk * d, 107, -0.5, 0.5));
    let out = g.temporal_attention(qv, xv, tvv, wkv, ktv, wvv, vtv, heads, &lens);
    let loss = g.sum_all(out);
    g.backward(loss);
    g.write_grads(&mut store);
    for (name, width, grad) in [("x", d, store.grad(x)), ("tv", tk, store.grad(tv))] {
        for u in 0..units {
            for t in lens[u] as usize..lmax {
                let row = &grad[(u * lmax + t) * width..(u * lmax + t + 1) * width];
                assert!(
                    row.iter().all(|&gv| gv == 0.0),
                    "{name} unit {u} padded step {t} got gradient {row:?}"
                );
            }
        }
    }
}

#[test]
fn temporal_attention_bit_identical_across_thread_counts() {
    let _guard = THREAD_LOCK.lock().unwrap();
    let ta = Ta::new(64, 6, 16, 8, 4, 111);
    let mix = vec![1.0; ta.units * ta.d];
    let mut runs = Vec::new();
    for &t in &[1usize, 4] {
        set_threads(t);
        runs.push(ta.bits(&mix));
        set_threads(1);
    }
    assert_eq!(runs[0], runs[1], "temporal attention results changed with thread count");
}
