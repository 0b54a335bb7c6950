//! Figure 4 — network reconstruction.
//!
//! For every dataset and method: train embeddings on the full network,
//! rank sampled node pairs by dot product, and report Precision@P for a
//! log-spaced sweep of P (the paper sweeps 10² … 10⁶ at its scale; the
//! sweep here tops out near the sampled-pair count of the synthetic
//! presets). One TSV per dataset with a column per method — the Figure 4
//! series.
//!
//! ```text
//! cargo run --release -p ehna-bench --bin fig4_reconstruction -- --scale tiny
//! ```

use ehna_bench::table::{f4, Table};
use ehna_bench::{Args, PAPER_METHOD_ORDER};
use ehna_datasets::{generate, ALL_DATASETS};
use ehna_eval::reconstruction::precision_at;
use ehna_eval::ReconstructionConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    for d in ALL_DATASETS {
        if let Some(only) = &args.only_dataset {
            if only != d.name() {
                continue;
            }
        }
        let graph = generate(d, args.scale, args.seed);
        // P sweep: log-spaced up to roughly the edge count.
        let mut ps: Vec<usize> = vec![100, 300, 1_000, 3_000, 10_000, 30_000, 100_000];
        ps.retain(|&p| p <= graph.num_edges() * 10);
        let cfg = ReconstructionConfig { sample_nodes: 600.min(graph.num_nodes()), repetitions: 5 };

        let mut table = Table::new(
            std::iter::once("P".to_string())
                .chain(PAPER_METHOD_ORDER.iter().map(|m| m.name().to_string())),
        );
        let mut columns: Vec<Vec<f64>> = Vec::new();
        for m in PAPER_METHOD_ORDER {
            eprintln!("[fig4] {} / {} ...", d.name(), m.name());
            let emb = m
                .train(&graph, &args.train_options_for(&graph))
                .expect("valid harness training options");
            let mut rng = StdRng::seed_from_u64(args.seed ^ 0xF164);
            columns.push(precision_at(&graph, &emb, &ps, &cfg, &mut rng));
        }
        for (i, &p) in ps.iter().enumerate() {
            let mut row = vec![p.to_string()];
            row.extend(columns.iter().map(|c| f4(c[i])));
            table.row(row);
        }
        println!("\nFigure 4 ({}-like, scale '{}'): Precision@P\n", d.name(), args.scale);
        print!("{}", table.render());
        let path = args.out_file(&format!("fig4_{}_{}.tsv", d.name(), args.scale));
        table.write_tsv(&path).expect("write tsv");
        println!("wrote {}", path.display());
    }
}
