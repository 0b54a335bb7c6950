//! Tables III–VI — future link prediction.
//!
//! One table per dataset: for each Table II operator and each metric
//! (AUC / F1 / Precision / Recall), the score of every method plus the
//! error-reduction of EHNA against the best baseline — exactly the cell
//! layout of the paper's Tables III (Digg), IV (Yelp), V (Tmall) and
//! VI (DBLP).
//!
//! ```text
//! cargo run --release -p ehna-bench --bin table3_6_linkpred -- --scale tiny
//! ```

use ehna_bench::table::{f4, pct, Table};
use ehna_bench::{Args, PAPER_METHOD_ORDER};
use ehna_datasets::{generate, Dataset, ALL_DATASETS};
use ehna_eval::metrics::error_reduction;
use ehna_eval::operators::ALL_OPERATORS;
use ehna_eval::{BinaryMetrics, LinkPredictionConfig, LinkPredictionTask};
use ehna_tgraph::NodeEmbeddings;

fn main() {
    let args = Args::from_env();
    for d in ALL_DATASETS {
        if let Some(only) = &args.only_dataset {
            if only != d.name() {
                continue;
            }
        }
        run_dataset(&args, d);
    }
}

fn run_dataset(args: &Args, d: Dataset) {
    let graph = generate(d, args.scale, args.seed);
    let task = LinkPredictionTask::prepare(
        &graph,
        LinkPredictionConfig { seed: args.seed, ..Default::default() },
    );
    eprintln!(
        "[linkpred] {}: {} train edges, {} positives",
        d.name(),
        task.train_graph().num_edges(),
        task.num_positives()
    );

    // Train every method once on the pre-cutoff network.
    let embs: Vec<NodeEmbeddings> = PAPER_METHOD_ORDER
        .iter()
        .map(|&m| {
            eprintln!("[linkpred] {} / {} ...", d.name(), m.name());
            let g = task.train_graph();
            m.train(g, &args.train_options_for(g)).expect("valid harness training options")
        })
        .collect();

    let mut table = Table::new(
        ["Operator".to_string(), "Metric".to_string()]
            .into_iter()
            .chain(PAPER_METHOD_ORDER.iter().map(|m| m.name().to_string()))
            .chain(std::iter::once("Error Reduction".to_string())),
    );
    for op in ALL_OPERATORS {
        let per_method: Vec<BinaryMetrics> = embs.iter().map(|e| task.evaluate(e, op)).collect();
        type MetricGetter = fn(&BinaryMetrics) -> f64;
        let metric_rows: [(&str, MetricGetter); 4] = [
            ("AUC", |m| m.auc),
            ("F1", |m| m.f1),
            ("Precision", |m| m.precision),
            ("Recall", |m| m.recall),
        ];
        for (label, get) in metric_rows {
            let scores: Vec<f64> = per_method.iter().map(get).collect();
            // Best baseline = best of all non-EHNA columns.
            let best_baseline =
                scores[..scores.len() - 1].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let ours = *scores.last().expect("EHNA column");
            let mut row = vec![op.name().to_string(), label.to_string()];
            row.extend(scores.iter().map(|&s| f4(s)));
            row.push(pct(error_reduction(best_baseline, ours)));
            table.row(row);
        }
    }
    println!("\nLink prediction on {}-like (scale '{}'): \n", d.name(), args.scale);
    print!("{}", table.render());
    let path = args.out_file(&format!("table3_6_{}_{}.tsv", d.name(), args.scale));
    table.write_tsv(&path).expect("write tsv");
    println!("wrote {}", path.display());
}
