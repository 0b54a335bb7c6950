//! The aggregator-refactor bit-identity gate: the LSTM path must produce
//! per-epoch losses bit-for-bit identical to the pre-refactor capture in
//! `tests/fixtures/golden_losses.txt`, at kernel threads {1, 4} and
//! pipeline depths {0, 3}.
//!
//! The fixture was generated by `crates/core/examples/golden_trace.rs`
//! on the commit *before* the `Aggregator` trait existed; regenerate it
//! only when a change is *supposed* to alter LSTM-path numerics (and say
//! so in the commit message).

use ehna_core::{EhnaConfig, Trainer};
use ehna_nn::kernels::set_threads;
use ehna_tgraph::{GraphBuilder, TemporalGraph};
use std::collections::HashMap;
use std::sync::Mutex;

// Kernel thread count is process-global; tests in this file must not
// interleave set_threads calls.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

fn graph() -> TemporalGraph {
    let mut b = GraphBuilder::with_num_nodes(12);
    let mut t = 0i64;
    for round in 0..5 {
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                if (i + 2 * j + round) % 3 != 1 {
                    t += 1;
                    b.add_edge(i, j, t, 1.0).unwrap();
                    b.add_edge(i + 6, j + 6, t, 1.0).unwrap();
                }
            }
        }
    }
    b.build().unwrap()
}

fn cfg(pipeline_depth: usize) -> EhnaConfig {
    EhnaConfig {
        dim: 8,
        num_walks: 3,
        walk_length: 3,
        batch_size: 16,
        epochs: 3,
        negatives: 3,
        lr: 5e-3,
        pipeline_depth,
        ..EhnaConfig::tiny()
    }
}

/// Parse the fixture into `(threads, depth) -> loss bits`.
fn golden() -> HashMap<(usize, usize), Vec<u64>> {
    let text = include_str!("fixtures/golden_losses.txt");
    let mut map = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let threads: usize = parts
            .next()
            .and_then(|s| s.strip_prefix("threads="))
            .and_then(|s| s.parse().ok())
            .expect("fixture line must start with threads=T");
        let depth: usize = parts
            .next()
            .and_then(|s| s.strip_prefix("depth="))
            .and_then(|s| s.parse().ok())
            .expect("fixture line must carry depth=D");
        let bits: Vec<u64> =
            parts.map(|h| u64::from_str_radix(h, 16).expect("fixture bits must be hex")).collect();
        assert!(!bits.is_empty(), "fixture line without losses");
        map.insert((threads, depth), bits);
    }
    assert_eq!(map.len(), 4, "fixture must cover threads {{1,4}} x depths {{0,3}}");
    map
}

fn run(threads: usize, depth: usize) -> Vec<u64> {
    let g = graph();
    let mut t = Trainer::new(&g, cfg(depth)).unwrap();
    set_threads(threads);
    let report = t.train();
    set_threads(1);
    report.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn lstm_losses_match_pre_refactor_golden_trace() {
    let _guard = THREAD_LOCK.lock().unwrap();
    let golden = golden();
    for &(threads, depth) in &[(1, 0), (1, 3), (4, 0), (4, 3)] {
        let got = run(threads, depth);
        let want = &golden[&(threads, depth)];
        assert_eq!(
            &got, want,
            "LSTM aggregation path diverged from the pre-refactor golden trace \
             at threads={threads} depth={depth}: \
             got {got:x?}, want {want:x?}"
        );
    }
}
