//! The harnesses' training policy for the compared methods: the paper's
//! walk and epoch settings (`k = l = 10` EHNA walks, batch 512, length-80
//! Node2Vec/CTDNE walks) and the hyperparameters each method gets. The
//! method set itself, its display names and the paper's column order are
//! [`ehna_cli::method`]'s.

use ehna_baselines::{Ctdne, EmbeddingMethod, Htne, Line, Node2Vec, SkipGramConfig};
use ehna_cli::method::MethodName;
use ehna_core::{EhnaConfig, Trainer};
use ehna_tgraph::{NodeEmbeddings, TemporalGraph};
use ehna_walks::{CtdneConfig, Node2VecConfig};

/// Train `method` on `graph`.
pub fn train(method: MethodName, graph: &TemporalGraph, dim: usize, seed: u64) -> NodeEmbeddings {
    match method {
        MethodName::Line => {
            Line { dim, samples_per_edge: 50, ..Default::default() }.embed(graph, seed)
        }
        MethodName::Node2Vec => Node2Vec {
            walks: Node2VecConfig { length: 80, walks_per_node: 10, ..Default::default() },
            sgns: SkipGramConfig { dim, epochs: 2, ..Default::default() },
            threads: 1,
        }
        .embed(graph, seed),
        MethodName::Ctdne => Ctdne {
            walks: CtdneConfig { length: 80, ..Default::default() },
            walks_per_node: 10,
            sgns: SkipGramConfig { dim, epochs: 2, ..Default::default() },
            threads: 1,
        }
        .embed(graph, seed),
        MethodName::Htne => Htne { dim, epochs: 10, ..Default::default() }.embed(graph, seed),
        MethodName::Ehna(variant) => {
            // §IV-D: bipartite (user–item) networks need the
            // bidirectional objective Eq. 7.
            let bidirectional = ehna_tgraph::algo::is_bipartite(graph);
            let config = variant.configure(EhnaConfig { bidirectional, ..ehna_config(dim, seed) });
            let mut trainer = Trainer::new(graph, config).expect("valid EHNA config");
            trainer.train();
            trainer.into_embeddings()
        }
    }
}

/// The EHNA base configuration.
pub fn ehna_config(dim: usize, seed: u64) -> EhnaConfig {
    EhnaConfig {
        dim,
        num_walks: 10,
        walk_length: 10,
        batch_size: 512,
        epochs: 6,
        lr: 1e-3,
        seed,
        ..Default::default()
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
            let e = train(m, &g, 16, 3);
            let name = m.name();
            assert_eq!(e.num_nodes(), g.num_nodes(), "{name}");
            assert_eq!(e.dim(), 16, "{name}");
            assert!(e.as_slice().iter().all(|v| v.is_finite()), "{name}");
        }
    }
}
