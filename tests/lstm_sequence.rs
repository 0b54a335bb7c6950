//! The fused stacked-LSTM tape op (`Graph::lstm_sequence`, behind
//! `StackedLstm::forward_sequence`) pinned bit for bit to the per-step
//! composition it replaces: zero initial state, then `LstmCell::step`
//! (`affine2` → `lstm_step` → two slices) for every step and layer.
//! The forward value and every parameter and input gradient must match
//! exactly, across layer counts, sequence lengths, batch sizes on both
//! sides of the GEMM chunk and parallel floors, and kernel thread counts.

use ehna_nn::kernels::set_threads;
use ehna_nn::layers::StackedLstm;
use ehna_nn::{Graph, ParamId, ParamStore, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

// Kernel thread count is process-global; tests here must not interleave
// `set_threads` calls.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Input width: `[in, 4h]` is large enough for the packed GEMM path and
/// has an `NR`-tile tail as a `gemm_nt_acc` output width.
const IN: usize = 40;
const HIDDEN: usize = 16;

/// The per-step reference: one zero constant per layer serves as both
/// initial `h` and `c`, and every (step, layer) is one `LstmCell::step`.
fn per_step(stack: &StackedLstm, g: &mut Graph, store: &ParamStore, steps: &[Var]) -> Var {
    let batch = steps[0].rows();
    let mut states: Vec<(Var, Var)> = stack
        .layers()
        .iter()
        .map(|cell| {
            let z = g.constant(batch, cell.hidden, vec![0.0; batch * cell.hidden]);
            (z, z)
        })
        .collect();
    let mut top = states[0].0;
    for &x in steps {
        let mut input = x;
        for (l, cell) in stack.layers().iter().enumerate() {
            let (h, c) = states[l];
            let (nh, nc) = cell.step(g, store, input, h, c);
            states[l] = (nh, nc);
            input = nh;
        }
        top = input;
    }
    top
}

/// What one run produces: the output bits and the bits of every
/// parameter gradient (inputs are parameters too, so their gradients are
/// included).
type Bits = (Vec<u32>, Vec<Vec<u32>>);

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Build the sequence from `step_ids[t]`, weight the output by `coef`
/// (so the upstream gradient is not uniform), backpropagate, and read
/// the result.
fn run(
    store: &mut ParamStore,
    stack: &StackedLstm,
    step_ids: &[ParamId],
    coef: &[f32],
    fused: bool,
) -> Bits {
    store.zero_grads();
    let mut g = Graph::new();
    let steps: Vec<Var> = step_ids.iter().map(|&id| g.param(store, id)).collect();
    let top = if fused {
        stack.forward_sequence(&mut g, store, &steps)
    } else {
        per_step(stack, &mut g, store, &steps)
    };
    let c = g.constant(top.rows(), top.cols(), coef.to_vec());
    let weighted = g.mul(top, c);
    let loss = g.sum_all(weighted);
    g.backward(loss);
    g.write_grads(store);
    let grads = store.ids().map(|id| bits(store.grad(id))).collect();
    (bits(g.value(top)), grads)
}

fn check(layers: usize, len: usize, batch: usize, repeated: bool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let stack = StackedLstm::new(&mut store, "s", IN, HIDDEN, layers, &mut rng);
    let distinct = if repeated { 1 } else { len };
    let step_ids: Vec<ParamId> = (0..distinct)
        .map(|t| {
            let v = (0..batch * IN).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
            store.add_param(format!("x{t}"), batch, IN, v)
        })
        .collect();
    let step_ids: Vec<ParamId> = (0..len).map(|t| step_ids[t % distinct]).collect();
    let coef: Vec<f32> = (0..batch * HIDDEN).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    let fused = run(&mut store, &stack, &step_ids, &coef, true);
    let reference = run(&mut store, &stack, &step_ids, &coef, false);
    let case = format!("layers={layers} len={len} batch={batch} repeated={repeated}");
    assert_eq!(fused.0, reference.0, "forward value differs: {case}");
    for (id, (f, r)) in store.ids().zip(fused.1.iter().zip(&reference.1)) {
        assert_eq!(f, r, "gradient of {} differs: {case}", store.name(id));
        // Guard against a vacuous comparison. A one-step sequence never
        // uses `W_hh` (its state is zero), so that gradient is zero.
        let unused = len == 1 && store.name(id).ends_with("w_hh");
        assert!(unused || f.iter().any(|&b| b != 0), "zero gradient of {}: {case}", store.name(id));
    }
}

#[test]
fn fused_sequence_matches_per_step_composition_bit_for_bit() {
    let _guard = THREAD_LOCK.lock().unwrap();
    for threads in [1, 2] {
        set_threads(threads);
        for layers in [1, 2] {
            for len in [1, 2, 11] {
                for batch in [1, 7, 129, 300] {
                    let seed = (layers * 1000 + len * 10 + batch) as u64;
                    check(layers, len, batch, false, seed);
                }
            }
        }
    }
    set_threads(1);
}

#[test]
fn repeated_input_var_accumulates_like_the_composition() {
    let _guard = THREAD_LOCK.lock().unwrap();
    for threads in [1, 2] {
        set_threads(threads);
        for (layers, len, batch) in [(1, 3, 7), (2, 2, 129), (2, 11, 300)] {
            check(layers, len, batch, true, 77 + len as u64);
        }
    }
    set_threads(1);
}
