//! Table VII — ablation study.
//!
//! F1 under the Weighted-L2 operator in the link-prediction task for the
//! four EHNA variants (full, -NA no attention, -RW traditional walks,
//! -SL single-level single-layer LSTM) on every dataset.
//!
//! ```text
//! cargo run --release -p ehna-bench --bin table7_ablation -- --scale tiny
//! ```

use ehna_bench::table::{f4, Table};
use ehna_bench::Args;
use ehna_cli::method::MethodName;
use ehna_core::variants::ALL_VARIANTS;
use ehna_datasets::{generate, ALL_DATASETS};
use ehna_eval::{EdgeOperator, LinkPredictionConfig, LinkPredictionTask};

fn main() {
    let args = Args::from_env();
    let datasets: Vec<_> = ALL_DATASETS
        .into_iter()
        .filter(|d| args.only_dataset.as_deref().map_or(true, |o| o == d.name()))
        .collect();

    let mut table = Table::new(
        std::iter::once("Method".to_string()).chain(datasets.iter().map(|d| d.name().to_string())),
    );
    let mut rows: Vec<Vec<String>> =
        ALL_VARIANTS.iter().map(|v| vec![v.name().to_string()]).collect();

    for &d in &datasets {
        let graph = generate(d, args.scale, args.seed);
        let task = LinkPredictionTask::prepare(
            &graph,
            LinkPredictionConfig { seed: args.seed, ..Default::default() },
        );
        for (vi, &variant) in ALL_VARIANTS.iter().enumerate() {
            eprintln!("[ablation] {} / {} ...", d.name(), variant.name());
            let g = task.train_graph();
            let emb = MethodName::Ehna(variant)
                .train(g, &args.train_options_for(g))
                .expect("valid harness training options");
            let m = task.evaluate(&emb, EdgeOperator::WeightedL2);
            rows[vi].push(f4(m.f1));
        }
    }
    for row in rows {
        table.row(row);
    }
    println!("\nTable VII: F1 under Weighted-L2, EHNA variants (scale '{}')\n", args.scale);
    print!("{}", table.render());
    let path = args.out_file(&format!("table7_ablation_{}.tsv", args.scale));
    table.write_tsv(&path).expect("write tsv");
    println!("wrote {}", path.display());
}
