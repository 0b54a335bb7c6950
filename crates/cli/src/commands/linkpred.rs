//! `ehna linkpred` — the §V-E future-link-prediction evaluation.

use crate::commands::{io_err, methods, train_options};
use crate::flags::Flags;
use crate::CliError;
use ehna_eval::operators::ALL_OPERATORS;
use ehna_eval::{LinkPredictionConfig, LinkPredictionTask};
use ehna_tgraph::read_edge_list_path;
use std::io::Write;

const HELP: &str = "ehna linkpred — future link prediction (paper §V-E)

usage: ehna linkpred FILE [--method NAME]... [--dim N] [--epochs N]
                     [--walks N] [--walk-length N] [--seed N] [--holdout F]

Holds out the newest fraction of edges (default 0.2), trains each method
on the remainder, and reports AUC/F1/precision/recall for all four edge
operators. The training flags and their defaults (the paper's settings)
are those of `ehna train --help`.";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, HELP)?;
    flags.expect_known(&["method", "dim", "epochs", "walks", "walk-length", "seed", "holdout"])?;
    let input = flags.one_positional("edge-list file")?;
    let methods = methods(&flags)?;
    let holdout = flags.get_or("holdout", 0.2f64)?;
    let opts = train_options(&flags)?;

    let graph = read_edge_list_path(input)?;
    if holdout <= 0.0 || holdout >= 1.0 {
        return Err(CliError::usage("--holdout must be in (0,1)"));
    }
    let task = LinkPredictionTask::prepare(
        &graph,
        LinkPredictionConfig { holdout, seed: opts.seed, ..Default::default() },
    );
    writeln!(
        out,
        "{}: {} training edges, {} future links held out",
        input,
        task.train_graph().num_edges(),
        task.num_positives()
    )
    .map_err(io_err)?;

    writeln!(
        out,
        "{:<10} {:<12} {:>8} {:>8} {:>8} {:>8}",
        "method", "operator", "AUC", "F1", "Prec", "Rec"
    )
    .map_err(io_err)?;
    for method in methods {
        let emb = method.train(task.train_graph(), &opts)?;
        for op in ALL_OPERATORS {
            let m = task.evaluate(&emb, op);
            writeln!(
                out,
                "{:<10} {:<12} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                method.name(),
                op.name(),
                m.auc,
                m.f1,
                m.precision,
                m.recall
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_datasets::{generate, Dataset, Scale};
    use ehna_tgraph::write_edge_list_path;

    #[test]
    fn evaluates_a_method() {
        let path = std::env::temp_dir().join("ehna_cli_lp_test.txt");
        let g = generate(Dataset::DiggLike, Scale::Tiny, 3);
        write_edge_list_path(&g, &path).unwrap();
        let args: Vec<String> = [
            path.to_str().unwrap(),
            "--method",
            "node2vec",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--walks",
            "2",
            "--walk-length",
            "3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Node2Vec"));
        assert!(s.contains("Hadamard"));
        assert_eq!(s.lines().count(), 2 + 4); // header x2 + 4 operator rows
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bad_holdout_rejected() {
        let path = std::env::temp_dir().join("ehna_cli_lp_test2.txt");
        let g = generate(Dataset::DiggLike, Scale::Tiny, 3);
        write_edge_list_path(&g, &path).unwrap();
        let args: Vec<String> =
            [path.to_str().unwrap(), "--holdout", "1.5"].iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
        let _ = std::fs::remove_file(path);
    }
}
