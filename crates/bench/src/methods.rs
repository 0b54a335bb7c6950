//! The harnesses' training policy for the compared methods: two budgets
//! and the hyperparameters each method gets under them. The method set
//! itself, its display names and the paper's column order are
//! [`ehna_cli::method`]'s.

use ehna_baselines::{Ctdne, EmbeddingMethod, Htne, Line, Node2Vec, SkipGramConfig};
use ehna_cli::method::MethodName;
use ehna_core::{EhnaConfig, Trainer};
use ehna_tgraph::{NodeEmbeddings, TemporalGraph};
use ehna_walks::{CtdneConfig, Node2VecConfig};
use std::str::FromStr;

/// How much compute to spend per method.
///
/// `Quick` keeps every harness runnable in minutes at `Scale::Tiny`;
/// `Full` uses the paper's walk/epoch settings (`k = 10`, `l = 10`,
/// `l = 80` for Node2Vec) and is meant for `Scale::Small`+ runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainBudget {
    /// Reduced walk counts / epochs.
    Quick,
    /// Paper-default settings.
    Full,
}

impl FromStr for TrainBudget {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Ok(TrainBudget::Quick),
            "full" => Ok(TrainBudget::Full),
            other => Err(format!("unknown budget '{other}' (quick|full)")),
        }
    }
}

/// Train `method` on `graph` under `budget`.
pub fn train(
    method: MethodName,
    graph: &TemporalGraph,
    dim: usize,
    seed: u64,
    budget: TrainBudget,
) -> NodeEmbeddings {
    let quick = budget == TrainBudget::Quick;
    match method {
        MethodName::Line => {
            Line { dim, samples_per_edge: if quick { 30 } else { 50 }, ..Default::default() }
                .embed(graph, seed)
        }
        MethodName::Node2Vec => Node2Vec {
            walks: Node2VecConfig {
                length: if quick { 20 } else { 80 },
                walks_per_node: if quick { 4 } else { 10 },
                ..Default::default()
            },
            sgns: SkipGramConfig { dim, epochs: if quick { 1 } else { 2 }, ..Default::default() },
            threads: 1,
        }
        .embed(graph, seed),
        MethodName::Ctdne => Ctdne {
            walks: CtdneConfig { length: if quick { 20 } else { 80 }, ..Default::default() },
            walks_per_node: if quick { 4 } else { 10 },
            sgns: SkipGramConfig { dim, epochs: if quick { 1 } else { 2 }, ..Default::default() },
            threads: 1,
        }
        .embed(graph, seed),
        MethodName::Htne => Htne { dim, epochs: if quick { 3 } else { 10 }, ..Default::default() }
            .embed(graph, seed),
        MethodName::Ehna(variant) => {
            // §IV-D: bipartite (user–item) networks need the
            // bidirectional objective Eq. 7.
            let bidirectional = ehna_tgraph::algo::is_bipartite(graph);
            let config =
                variant.configure(EhnaConfig { bidirectional, ..ehna_config(dim, seed, budget) });
            let mut trainer = Trainer::new(graph, config).expect("valid EHNA config");
            trainer.train();
            trainer.into_embeddings()
        }
    }
}

/// The EHNA base configuration per budget.
pub fn ehna_config(dim: usize, seed: u64, budget: TrainBudget) -> EhnaConfig {
    match budget {
        TrainBudget::Quick => EhnaConfig {
            dim,
            num_walks: 5,
            walk_length: 5,
            batch_size: 64,
            epochs: 8,
            lr: 2e-3,
            seed,
            ..Default::default()
        },
        TrainBudget::Full => EhnaConfig {
            dim,
            num_walks: 10,
            walk_length: 10,
            batch_size: 512,
            epochs: 6,
            lr: 1e-3,
            seed,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_cli::method::PAPER_METHOD_ORDER;
    use ehna_datasets::{generate, Dataset, Scale};

    #[test]
    fn every_method_trains_on_tiny_graph() {
        let g = generate(Dataset::DiggLike, Scale::Tiny, 1);
        for m in PAPER_METHOD_ORDER {
            let e = train(m, &g, 16, 3, TrainBudget::Quick);
            let name = m.name();
            assert_eq!(e.num_nodes(), g.num_nodes(), "{name}");
            assert_eq!(e.dim(), 16, "{name}");
            assert!(e.as_slice().iter().all(|v| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn budget_parses() {
        assert_eq!("quick".parse::<TrainBudget>().unwrap(), TrainBudget::Quick);
        assert_eq!("FULL".parse::<TrainBudget>().unwrap(), TrainBudget::Full);
        assert!("lavish".parse::<TrainBudget>().is_err());
    }
}
