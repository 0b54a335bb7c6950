//! Regenerates the golden loss trace consumed by the root package's
//! `tests/aggregator_golden.rs`. The trace pins the LSTM aggregation
//! path bit-for-bit: any refactor of the aggregation stage must keep
//! per-epoch losses identical for the fixture below at kernel threads
//! {1, 4} and pipeline depths {0, 3}.
//!
//! Run from the repo root and redirect into the committed fixture:
//!
//! ```text
//! cargo run -p ehna-core --example golden_trace \
//!     > tests/fixtures/golden_losses.txt
//! ```
//!
//! Output format: one line per (threads, depth) combination,
//! `threads=T depth=D <hex loss bits, space-separated>`.

use ehna_core::{EhnaConfig, Trainer};
use ehna_nn::kernels::set_threads;
use ehna_tgraph::{GraphBuilder, TemporalGraph};

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

fn main() {
    let g = graph();
    for &threads in &[1usize, 4] {
        for &depth in &[0usize, 3] {
            let mut t = Trainer::new(&g, cfg(depth)).unwrap();
            set_threads(threads);
            let report = t.train();
            set_threads(1);
            let bits: Vec<String> =
                report.epoch_losses.iter().map(|l| format!("{:016x}", l.to_bits())).collect();
            println!("threads={} depth={} {}", threads, depth, bits.join(" "));
        }
    }
}
