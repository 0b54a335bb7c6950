//! Tiny hand-rolled flag parser shared by the harness binaries (keeps the
//! workspace free of an argument-parsing dependency).

use crate::methods::TrainBudget;
use ehna_datasets::Scale;
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
    /// Training effort.
    pub budget: TrainBudget,
    /// Output directory for TSV files.
    pub out: PathBuf,
    /// Restrict to one dataset (name), if given.
    pub only_dataset: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Tiny,
            dim: 32,
            seed: 42,
            budget: TrainBudget::Quick,
            out: PathBuf::from("results"),
            only_dataset: None,
        }
    }
}

impl Args {
    /// Parse from an iterator of arguments (excluding `argv[0]`).
    ///
    /// # Errors
    /// Returns a usage message on unknown flags or bad values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("flag {name} needs a value"));
            match flag.as_str() {
                "--scale" => out.scale = value("--scale")?.parse()?,
                "--dim" => {
                    out.dim = value("--dim")?.parse().map_err(|e| format!("bad --dim: {e}"))?;
                }
                "--seed" => {
                    out.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--budget" => out.budget = value("--budget")?.parse()?,
                "--out" => out.out = PathBuf::from(value("--out")?),
                "--dataset" => out.only_dataset = Some(value("--dataset")?),
                "--help" | "-h" => return Err(usage()),
                other => return Err(format!("unknown flag '{other}'\n{}", usage())),
            }
        }
        if out.dim == 0 || out.dim % 2 != 0 {
            return Err("--dim must be a positive even number (LINE splits it)".into());
        }
        Ok(out)
    }

    /// Parse from the process environment.
    pub fn from_env() -> Self {
        match Args::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Create the output directory and return a file path within it.
    pub fn out_file(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out).expect("create results dir");
        self.out.join(name)
    }
}

fn usage() -> String {
    "usage: <bin> [--scale tiny|small|medium] [--dim N] [--seed N] \
     [--budget quick|full] [--out DIR] [--dataset digg|yelp|tmall|dblp]"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.dim, 32);
        assert_eq!(a.scale, Scale::Tiny);
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
            "--budget",
            "full",
            "--out",
            "/tmp/r",
            "--dataset",
            "yelp",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.dim, 32);
        assert_eq!(a.seed, 7);
        assert_eq!(a.budget, TrainBudget::Full);
        assert_eq!(a.out, PathBuf::from("/tmp/r"));
        assert_eq!(a.only_dataset.as_deref(), Some("yelp"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--dim", "0"]).is_err());
        assert!(parse(&["--dim", "63"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--dim"]).is_err());
    }
}
