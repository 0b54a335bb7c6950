//! Figure 5 — parameter sensitivity of EHNA on the yelp-like dataset.
//!
//! Four sweeps, each reporting the average F1 across the four Table II
//! operators in the link-prediction task (the paper's y-axis):
//! (a) safety margin m ∈ 1..5, (b) walk length l ∈ {1, 5, 10, 15, 20, 25},
//! (c) log2 p ∈ −2..2, (d) log2 q ∈ −2..2.
//!
//! ```text
//! cargo run --release -p ehna-bench --bin fig5_sensitivity -- --scale tiny
//! ```

use ehna_bench::table::{f4, Table};
use ehna_bench::Args;
use ehna_cli::method::ehna_config;
use ehna_core::{EhnaConfig, EhnaVariant, Trainer};
use ehna_datasets::{generate, Dataset};
use ehna_eval::operators::ALL_OPERATORS;
use ehna_eval::{LinkPredictionConfig, LinkPredictionTask};

/// Train EHNA with `config` and return the mean F1 across operators.
fn avg_f1(task: &LinkPredictionTask, config: EhnaConfig) -> f64 {
    let mut trainer = Trainer::new(task.train_graph(), config).expect("valid config");
    trainer.train();
    let emb = trainer.into_embeddings();
    let total: f64 = ALL_OPERATORS.iter().map(|&op| task.evaluate(&emb, op).f1).sum();
    total / ALL_OPERATORS.len() as f64
}

fn sweep(name: &str, points: Vec<(String, EhnaConfig)>, task: &LinkPredictionTask, args: &Args) {
    let mut table = Table::new([name, "Avg. F1"]);
    for (label, cfg) in points {
        eprintln!("[fig5] {name} = {label} ...");
        table.row([label, f4(avg_f1(task, cfg))]);
    }
    println!("\nFigure 5: varying {name} (yelp-like, scale '{}')\n", args.scale);
    print!("{}", table.render());
    let slug = name.to_ascii_lowercase().replace(' ', "_");
    let path = args.out_file(&format!("fig5_{}_{}.tsv", slug, args.scale));
    table.write_tsv(&path).expect("write tsv");
    println!("wrote {}", path.display());
}

fn main() {
    let args = Args::from_env();
    let graph = generate(Dataset::YelpLike, args.scale, args.seed);
    let task = LinkPredictionTask::prepare(
        &graph,
        LinkPredictionConfig { seed: args.seed, ..Default::default() },
    );
    let base = ehna_config(EhnaVariant::Full, &args.train_options_for(&graph));

    // (a) safety margin.
    sweep(
        "margin",
        (1..=5).map(|m| (m.to_string(), EhnaConfig { margin: m as f32, ..base.clone() })).collect(),
        &task,
        &args,
    );
    // (b) walk length.
    sweep(
        "walk length",
        [1usize, 5, 10, 15, 20, 25]
            .into_iter()
            .map(|l| (l.to_string(), EhnaConfig { walk_length: l, ..base.clone() }))
            .collect(),
        &task,
        &args,
    );
    // (c) log2 p.
    sweep(
        "log2 p",
        (-2..=2).map(|e| (e.to_string(), EhnaConfig { p: 2f64.powi(e), ..base.clone() })).collect(),
        &task,
        &args,
    );
    // (d) log2 q.
    sweep(
        "log2 q",
        (-2..=2).map(|e| (e.to_string(), EhnaConfig { q: 2f64.powi(e), ..base.clone() })).collect(),
        &task,
        &args,
    );
}
