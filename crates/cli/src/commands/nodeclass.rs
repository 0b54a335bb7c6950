//! `ehna nodeclass` — node classification on the temporal stochastic
//! block model (extension experiment; see `ehna-eval::nodeclass`).

use crate::commands::{io_err, methods, train_options};
use crate::flags::Flags;
use crate::CliError;
use ehna_datasets::CommunityConfig;
use ehna_eval::nodeclass::{evaluate, NodeClassificationConfig};
use std::io::Write;

const HELP: &str = "ehna nodeclass — node classification on a temporal SBM

usage: ehna nodeclass [--method NAME]... [--nodes N] [--communities K]
                      [--events N] [--dim N] [--epochs N] [--walks N]
                      [--walk-length N] [--seed N]

Generates a temporal stochastic block model whose communities are both
structurally and temporally coherent, trains each method, and reports
accuracy and macro-F1 of one-vs-rest logistic regression on the
embeddings. The training flags and their defaults (the paper's settings,
--dim 64) are those of `ehna train --help`.";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, HELP)?;
    flags.expect_known(&[
        "method",
        "nodes",
        "communities",
        "events",
        "dim",
        "epochs",
        "walks",
        "walk-length",
        "seed",
    ])?;
    if !flags.positionals().is_empty() {
        return Err(CliError::usage("nodeclass takes no positional arguments"));
    }
    let methods = methods(&flags)?;
    let cfg = CommunityConfig {
        num_nodes: flags.get_or("nodes", 400usize)?,
        num_communities: flags.get_or("communities", 4usize)?,
        num_events: flags.get_or("events", 4_000usize)?,
        ..Default::default()
    };
    let opts = train_options(&flags)?;

    let (graph, labels) = cfg.generate(opts.seed);
    writeln!(
        out,
        "temporal SBM: {} nodes, {} edges, {} communities",
        graph.num_nodes(),
        graph.num_edges(),
        cfg.num_communities
    )
    .map_err(io_err)?;
    writeln!(out, "{:<10} {:>10} {:>10}", "method", "accuracy", "macro-F1").map_err(io_err)?;
    let nc = NodeClassificationConfig { seed: opts.seed, ..Default::default() };
    for method in methods {
        let emb = method.train(&graph, &opts)?;
        let r = evaluate(&emb, &labels, &nc);
        writeln!(out, "{:<10} {:>10.4} {:>10.4}", method.name(), r.accuracy, r.macro_f1)
            .map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_with_line() {
        let args: Vec<String> =
            ["--method", "line", "--nodes", "60", "--events", "600", "--dim", "8", "--epochs", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("LINE"));
        assert!(s.contains("macro-F1"));
    }

    #[test]
    fn rejects_positionals() {
        let args = vec!["stray.txt".to_string()];
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
    }
}
