//! `ehna reconstruct` — the §V-D network-reconstruction evaluation.

use crate::commands::{io_err, methods, train_options};
use crate::flags::Flags;
use crate::CliError;
use ehna_eval::reconstruction::precision_at;
use ehna_eval::ReconstructionConfig;
use ehna_tgraph::read_edge_list_path;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;

const HELP: &str = "ehna reconstruct — network reconstruction (paper §V-D)

usage: ehna reconstruct FILE [--method NAME]... [--dim N] [--epochs N]
                        [--walks N] [--walk-length N]
                        [--p 100,1000,10000] [--sample-nodes N]
                        [--repetitions N] [--seed N]

Trains on the full network and reports Precision@P: the fraction of the
top-P dot-product-ranked node pairs that are true edges. The training
flags and their defaults (the paper's settings) are those of `ehna train
--help`; --p here is the list of P values, not the walk bias.";

/// Run the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, HELP)?;
    flags.expect_known(&[
        "method",
        "dim",
        "epochs",
        "walks",
        "walk-length",
        "p",
        "sample-nodes",
        "repetitions",
        "seed",
    ])?;
    let input = flags.one_positional("edge-list file")?;
    let methods = methods(&flags)?;
    let ps: Vec<usize> = flags.get_list("p", vec![100, 1_000, 10_000])?;
    let cfg = ReconstructionConfig {
        sample_nodes: flags.get_or("sample-nodes", 600usize)?,
        repetitions: flags.get_or("repetitions", 5usize)?,
    };
    let opts = train_options(&flags)?;

    let graph = read_edge_list_path(input)?;
    let mut header = format!("{:<10}", "method");
    for p in &ps {
        header.push_str(&format!(" {:>12}", format!("P={p}")));
    }
    writeln!(out, "{header}").map_err(io_err)?;
    for method in methods {
        let emb = method.train(&graph, &opts)?;
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5EC0);
        let precisions = precision_at(&graph, &emb, &ps, &cfg, &mut rng);
        let mut row = format!("{:<10}", method.name());
        for v in precisions {
            row.push_str(&format!(" {v:>12.4}"));
        }
        writeln!(out, "{row}").map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_datasets::{generate, Dataset, Scale};
    use ehna_tgraph::write_edge_list_path;

    #[test]
    fn reconstructs_with_line() {
        let path = std::env::temp_dir().join("ehna_cli_rec_test.txt");
        let g = generate(Dataset::DblpLike, Scale::Tiny, 2);
        write_edge_list_path(&g, &path).unwrap();
        let args: Vec<String> = [
            path.to_str().unwrap(),
            "--method",
            "line",
            "--dim",
            "8",
            "--epochs",
            "1",
            "--p",
            "50,200",
            "--sample-nodes",
            "100",
            "--repetitions",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("LINE"));
        assert!(s.contains("P=50"));
        let _ = std::fs::remove_file(path);
    }
}
