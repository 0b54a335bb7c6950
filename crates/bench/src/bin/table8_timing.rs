//! Table VIII — average training time per epoch.
//!
//! Times one training epoch of every method on every dataset, including
//! the multi-threaded walk-corpus variants (`Node2Vec 10`, `CTDNE 10`)
//! the paper reports. Absolute numbers depend on the machine; the paper's
//! comparison is about *relative* cost (HTNE cheapest, LINE flat across
//! datasets, EHNA between the walk methods and LINE).
//!
//! ```text
//! cargo run --release -p ehna-bench --bin table8_timing -- --scale tiny
//! ```

use ehna_baselines::{Ctdne, EmbeddingMethod, Htne, Line, Node2Vec, SkipGramConfig};
use ehna_bench::table::Table;
use ehna_bench::Args;
use ehna_cli::method::ehna_config;
use ehna_core::{EhnaVariant, Trainer};
use ehna_datasets::{generate, ALL_DATASETS};
use ehna_tgraph::TemporalGraph;
use ehna_walks::{CtdneConfig, Node2VecConfig};
use std::time::Instant;

/// Wall-time of `f`, in seconds.
fn time_it(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn one_epoch_rows(graph: &TemporalGraph, args: &Args) -> Vec<(String, f64)> {
    let dim = args.dim;
    let seed = args.seed;
    let n2v = |threads| Node2Vec {
        walks: Node2VecConfig { length: 80, walks_per_node: 10, ..Default::default() },
        sgns: SkipGramConfig { dim, epochs: 1, ..Default::default() },
        threads,
    };
    let ctdne = |threads| Ctdne {
        walks: CtdneConfig { length: 80, ..Default::default() },
        walks_per_node: 10,
        sgns: SkipGramConfig { dim, epochs: 1, ..Default::default() },
        threads,
    };
    let mut rows = Vec::new();
    rows.push((
        "Node2Vec".to_string(),
        time_it(|| {
            n2v(1).embed(graph, seed);
        }),
    ));
    rows.push((
        "Node2Vec 10".to_string(),
        time_it(|| {
            n2v(10).embed(graph, seed);
        }),
    ));
    rows.push((
        "CTDNE".to_string(),
        time_it(|| {
            ctdne(1).embed(graph, seed);
        }),
    ));
    rows.push((
        "CTDNE 10".to_string(),
        time_it(|| {
            ctdne(10).embed(graph, seed);
        }),
    ));
    rows.push((
        "LINE".to_string(),
        time_it(|| {
            Line { dim, samples_per_edge: 50, ..Default::default() }.embed(graph, seed);
        }),
    ));
    rows.push((
        "HTNE".to_string(),
        time_it(|| {
            Htne { dim, epochs: 1, ..Default::default() }.embed(graph, seed);
        }),
    ));
    rows.push(("EHNA".to_string(), {
        let cfg = ehna_config(EhnaVariant::Full, &args.train_options_for(graph));
        let mut trainer = Trainer::new(graph, cfg).expect("valid config");
        time_it(|| {
            trainer.train_epoch();
        })
    }));
    rows
}

fn main() {
    let args = Args::from_env();
    let datasets: Vec<_> = ALL_DATASETS
        .into_iter()
        .filter(|d| args.only_dataset.as_deref().map_or(true, |o| o == d.name()))
        .collect();
    let mut table = Table::new(
        std::iter::once("Method".to_string())
            .chain(datasets.iter().map(|d| format!("{} (s)", d.name()))),
    );
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (di, &d) in datasets.iter().enumerate() {
        eprintln!("[timing] {} ...", d.name());
        let graph = generate(d, args.scale, args.seed);
        for (ri, (name, secs)) in one_epoch_rows(&graph, &args).into_iter().enumerate() {
            if di == 0 {
                rows.push(vec![name]);
            }
            rows[ri].push(format!("{secs:.3}"));
        }
    }
    for row in rows {
        table.row(row);
    }
    println!("\nTable VIII: training time per epoch (scale '{}')\n", args.scale);
    print!("{}", table.render());
    let path = args.out_file(&format!("table8_timing_{}.tsv", args.scale));
    table.write_tsv(&path).expect("write tsv");
    println!("wrote {}", path.display());
}
