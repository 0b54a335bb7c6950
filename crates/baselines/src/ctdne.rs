//! The CTDNE baseline (paper §V-B): forward time-respecting walks with
//! uniform initial-edge and next-node selection, trained with SGNS so that
//! nodes co-occurring in the same time-constrained walk embed nearby.

use crate::skipgram::{SkipGram, SkipGramConfig};
use crate::EmbeddingMethod;
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph};
use ehna_walks::{CtdneConfig, CtdneWalker};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// CTDNE with the paper's baseline settings (uniform sampling, window
/// count matched to Node2Vec's corpus budget).
#[derive(Debug, Clone)]
pub struct Ctdne {
    /// Walk settings.
    pub walks: CtdneConfig,
    /// SGNS settings.
    pub sgns: SkipGramConfig,
    /// Walks per active node (sets the corpus budget like Node2Vec's
    /// `walks_per_node`; total walks = this × active nodes).
    pub walks_per_node: usize,
    /// Worker threads for corpus generation (`CTDNE 10` in Table VIII).
    pub threads: usize,
}

impl Default for Ctdne {
    fn default() -> Self {
        Ctdne {
            walks: CtdneConfig::default(),
            sgns: SkipGramConfig::default(),
            walks_per_node: 10,
            threads: 1,
        }
    }
}

impl Ctdne {
    /// Generate the walk corpus.
    pub fn corpus(&self, graph: &TemporalGraph, seed: u64) -> Vec<Vec<NodeId>> {
        let active = graph.nodes().filter(|&v| graph.degree(v) > 0).count();
        let budget = active * self.walks_per_node;
        let cfg = CtdneConfig { num_walks: budget, ..self.walks.clone() };
        if self.threads <= 1 {
            let walker = CtdneWalker::new(graph, cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            return walker.corpus(&mut rng);
        }
        let mut chunks: Vec<Vec<Vec<NodeId>>> = Vec::new();
        let per = budget.div_ceil(self.threads);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|c| {
                    let cfg = CtdneConfig { num_walks: per, ..self.walks.clone() };
                    let walker = CtdneWalker::new(graph, cfg);
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ (c as u64).wrapping_mul(0xD1B54A32D192ED03),
                        );
                        walker.corpus(&mut rng)
                    })
                })
                .collect();
            for h in handles {
                chunks.push(h.join().expect("walker thread"));
            }
        });
        chunks.into_iter().flatten().collect()
    }
}

impl EmbeddingMethod for Ctdne {
    fn name(&self) -> &str {
        "CTDNE"
    }

    fn embed(&self, graph: &TemporalGraph, seed: u64) -> NodeEmbeddings {
        let corpus = self.corpus(graph, seed);
        SkipGram::new(self.sgns.clone()).train(graph, &corpus, seed.wrapping_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;

    fn temporal_communities() -> TemporalGraph {
        // Two cliques active in disjoint eras plus one late bridge.
        let mut b = GraphBuilder::new();
        for round in 0..3i64 {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    b.add_edge(i, j, round * 10 + (i + j) as i64, 1.0).unwrap();
                    b.add_edge(i + 4, j + 4, round * 10 + (i + j) as i64, 1.0).unwrap();
                }
            }
        }
        b.add_edge(3, 4, 100, 1.0).unwrap();
        b.build().unwrap()
    }

    fn fast() -> Ctdne {
        Ctdne {
            walks: CtdneConfig { length: 12, min_length: 2, ..Default::default() },
            sgns: SkipGramConfig { dim: 16, epochs: 2, ..Default::default() },
            walks_per_node: 8,
            threads: 1,
        }
    }

    #[test]
    fn embeds_temporal_communities() {
        let g = temporal_communities();
        let e = fast().embed(&g, 5);
        let same = e.dot(NodeId(0), NodeId(2));
        let cross = e.dot(NodeId(0), NodeId(6));
        assert!(same > cross, "same {same:.3} !> cross {cross:.3}");
    }

    #[test]
    fn corpus_budget_respected() {
        let g = temporal_communities();
        let c = fast().corpus(&g, 1);
        assert!(!c.is_empty());
        assert!(c.len() <= 8 * 8);
        assert!(c.iter().all(|w| w.len() >= 2));
    }

    #[test]
    fn parallel_corpus_is_deterministic() {
        let g = temporal_communities();
        let mut cfg = fast();
        cfg.threads = 3;
        let a = cfg.corpus(&g, 2);
        let b = cfg.corpus(&g, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn name_matches_table() {
        assert_eq!(fast().name(), "CTDNE");
    }
}
