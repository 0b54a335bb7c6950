//! Micro-benchmarks of the autodiff substrate: GEMM kernels, LSTM steps,
//! and a forward+backward round trip at EHNA-typical shapes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ehna_nn::layers::{LstmCell, StackedLstm};
use ehna_nn::{Graph, ParamStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_nn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("nn");

    // 256x64 @ 64x256 — the node-level LSTM gate matmul shape.
    let a = rand_vec(256 * 64, &mut rng);
    let b = rand_vec(64 * 256, &mut rng);
    group.bench_function("matmul_256x64x256", |bch| {
        bch.iter(|| {
            let mut g = Graph::new();
            let av = g.constant(256, 64, a.clone());
            let bv = g.constant(64, 256, b.clone());
            black_box(g.matmul(av, bv))
        })
    });

    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, "cell", 64, 64, &mut rng);
    let x = rand_vec(256 * 64, &mut rng);
    group.bench_function("lstm_step_b256_d64", |bch| {
        bch.iter(|| {
            let mut g = Graph::new();
            let xv = g.constant(256, 64, x.clone());
            let h = g.constant(256, 64, vec![0.0; 256 * 64]);
            let (h1, _) = cell.step(&mut g, &store, xv, h, h);
            black_box(h1)
        })
    });

    let mut store2 = ParamStore::new();
    let stack = StackedLstm::new(&mut store2, "s", 64, 64, 2, &mut rng);
    group.bench_function("stacked_lstm_fwd_bwd_seq10_b64", |bch| {
        let steps_data: Vec<Vec<f32>> = (0..10).map(|_| rand_vec(64 * 64, &mut rng)).collect();
        bch.iter(|| {
            let mut g = Graph::new();
            let steps: Vec<_> = steps_data.iter().map(|d| g.constant(64, 64, d.clone())).collect();
            let h = stack.forward_sequence(&mut g, &store2, &steps);
            let sq = g.square(h);
            let loss = g.sum_all(sq);
            g.backward(loss);
            g.write_grads(&mut store2);
            store2.zero_grads();
            black_box(g.num_nodes())
        })
    });

    // The train workload's largest node-LSTM group: 2048 walks × 11 steps,
    // d = 64, 2 layers, on a recycled tape as the trainer runs it.
    let mut store3 = ParamStore::new();
    let stack3 = StackedLstm::new(&mut store3, "s", 64, 64, 2, &mut rng);
    let group_steps: Vec<Vec<f32>> = (0..11).map(|_| rand_vec(2048 * 64, &mut rng)).collect();
    let mut tape = Graph::new();
    group.sample_size(10);
    group.bench_function("stacked_lstm_fwd_bwd_seq11_b2048_d64", |bch| {
        bch.iter(|| {
            let g = &mut tape;
            let steps: Vec<_> =
                group_steps.iter().map(|d| g.constant(2048, 64, d.clone())).collect();
            let h = stack3.forward_sequence(g, &store3, &steps);
            let sq = g.square(h);
            let loss = g.sum_all(sq);
            g.backward(loss);
            g.write_grads(&mut store3);
            store3.zero_grads();
            g.recycle();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
