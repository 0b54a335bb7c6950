//! The flags every harness binary shares, read through the same
//! [`Flags`] parser the `ehna` subcommands use, and the training options
//! they resolve to.

use ehna_cli::flags::Flags;
use ehna_cli::method::TrainOptions;
use ehna_cli::CliError;
use ehna_datasets::Scale;
use ehna_tgraph::TemporalGraph;
use std::path::PathBuf;

/// Flags common to every harness binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset scale preset.
    pub scale: Scale,
    /// Embedding dimensionality (paper: 128; scaled default 32 so the
    /// full harness suite runs on one CPU core in tens of minutes).
    pub dim: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for TSV files.
    pub out: PathBuf,
    /// Restrict to one dataset (name), if given.
    pub only_dataset: Option<String>,
}

const USAGE: &str = "usage: <bin> [--scale tiny|small|medium] [--dim N] [--seed N] \
                     [--out DIR] [--dataset digg|yelp|tmall|dblp]";

impl Args {
    /// Parse from the arguments (excluding `argv[0]`).
    ///
    /// # Errors
    /// A usage error carrying the usage text on `--help`, unknown flags,
    /// positionals, missing or bad values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        Self::read(args).map_err(|e| {
            if e.message.ends_with(USAGE) {
                e
            } else {
                CliError::usage(format!("{}\n{USAGE}", e.message))
            }
        })
    }

    fn read(args: &[String]) -> Result<Self, CliError> {
        let flags = Flags::parse(args, USAGE)?;
        flags.expect_known(&["scale", "dim", "seed", "out", "dataset"])?;
        if let Some(stray) = flags.positionals().first() {
            return Err(CliError::usage(format!("unexpected argument '{stray}'")));
        }
        let dim = flags.get_or("dim", 32usize)?;
        if dim == 0 || dim % 2 != 0 {
            return Err(CliError::usage("--dim must be a positive even number (LINE splits it)"));
        }
        Ok(Args {
            scale: flags.get_or("scale", Scale::Tiny)?,
            dim,
            seed: flags.get_or("seed", 42u64)?,
            out: flags.get_or("out", PathBuf::from("results"))?,
            only_dataset: flags.get("dataset").map(str::to_string),
        })
    }

    /// Parse from the process environment; usage errors exit 2.
    pub fn from_env() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(e.code);
        })
    }

    /// The paper's training options ([`TrainOptions::default`]) at this
    /// run's `--dim` and `--seed`.
    pub fn train_options(&self) -> TrainOptions {
        TrainOptions { dim: self.dim, seed: self.seed, ..Default::default() }
    }

    /// [`Args::train_options`] for training on `graph`: the bidirectional
    /// objective (Eq. 7) iff `graph` is bipartite (§IV-D).
    pub fn train_options_for(&self, graph: &TemporalGraph) -> TrainOptions {
        TrainOptions {
            bidirectional: ehna_tgraph::algo::is_bipartite(graph),
            ..self.train_options()
        }
    }

    /// Create the output directory and return a file path within it.
    pub fn out_file(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create results dir");
        self.out.join(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, CliError> {
        Args::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    fn usage_error(s: &[&str]) -> CliError {
        let err = parse(s).unwrap_err();
        assert_eq!(err.code, 2, "{s:?}: {}", err.message);
        assert!(err.message.ends_with(USAGE), "{s:?}: {}", err.message);
        err
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.dim, 32);
        assert_eq!(a.seed, 42);
        assert_eq!(a.out, PathBuf::from("results"));
        assert!(a.only_dataset.is_none());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--scale",
            "small",
            "--dim",
            "32",
            "--seed",
            "7",
            "--out",
            "/tmp/r",
            "--dataset",
            "yelp",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.dim, 32);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out, PathBuf::from("/tmp/r"));
        assert_eq!(a.only_dataset.as_deref(), Some("yelp"));
    }

    #[test]
    fn budget_is_an_unknown_flag() {
        let err = usage_error(&["--budget", "full"]);
        assert!(err.message.contains("unknown flag --budget"), "{}", err.message);
    }

    #[test]
    fn stray_positional_is_rejected() {
        let err = usage_error(&["--seed", "1", "digg"]);
        assert!(err.message.contains("'digg'"), "{}", err.message);
    }

    #[test]
    fn odd_or_zero_dim_is_rejected() {
        usage_error(&["--dim", "63"]);
        usage_error(&["--dim", "0"]);
    }

    #[test]
    fn harness_options_resolve_to_the_papers_ehna_config() {
        use ehna_cli::method::ehna_config;
        use ehna_core::variants::ALL_VARIANTS;
        use ehna_core::EhnaConfig;
        let args = parse(&["--dim", "16", "--seed", "7"]).unwrap();
        for variant in ALL_VARIANTS {
            let expected = variant.configure(EhnaConfig {
                dim: 16,
                num_walks: 10,
                walk_length: 10,
                batch_size: 512,
                epochs: 6,
                lr: 1e-3,
                seed: 7,
                threads: 1,
                pipeline_depth: 2,
                ..Default::default()
            });
            let got = ehna_config(variant, &args.train_options());
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{variant}");
        }
    }

    #[test]
    fn bipartite_graphs_train_on_eq_7() {
        use ehna_tgraph::GraphBuilder;
        let graph = |edges: &[(u32, u32)]| {
            let mut b = GraphBuilder::new();
            for (t, &(u, v)) in edges.iter().enumerate() {
                b.add_edge(u, v, t as i64, 1.0).unwrap();
            }
            b.build().unwrap()
        };
        let args = parse(&[]).unwrap();
        assert!(args.train_options_for(&graph(&[(0, 1), (2, 1)])).bidirectional);
        assert!(!args.train_options_for(&graph(&[(0, 1), (2, 1), (0, 2)])).bidirectional);
        assert!(!args.train_options().bidirectional);
    }

    #[test]
    fn rejects_bad_input() {
        usage_error(&["--scale", "huge"]);
        usage_error(&["--seed", "x"]);
        usage_error(&["--bogus"]);
        usage_error(&["--dim"]);
        assert_eq!(usage_error(&["--help"]).message, USAGE);
    }
}
