//! The future-link-prediction task (§V-E, Tables III–VI), end to end:
//!
//! 1. remove the 20 % most recent edges; they are the positive examples;
//! 2. sample an equal number of never-connected node pairs as negatives;
//! 3. train embeddings on the remaining network (caller's job — any
//!    [`NodeEmbeddings`] can be evaluated);
//! 4. build edge representations with a Table II operator;
//! 5. split examples 50/50 into classifier train/test, fit logistic
//!    regression, and score; repeat 10× and average.

use crate::logreg::{LogRegConfig, LogisticRegression};
use crate::metrics::BinaryMetrics;
use crate::operators::EdgeOperator;
use crate::split::{sample_negative_pairs, temporal_split, TemporalSplit};
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Link-prediction evaluation settings (paper defaults).
#[derive(Debug, Clone)]
pub struct LinkPredictionConfig {
    /// Fraction of most-recent edges held out (paper: 0.2).
    pub holdout: f64,
    /// Fraction of examples used to train the classifier (paper: 0.5).
    pub train_ratio: f64,
    /// Classifier train/test resampling repetitions (paper: 10).
    pub repetitions: usize,
    /// Classifier settings.
    pub logreg: LogRegConfig,
    /// Seed for negative sampling and resampling.
    pub seed: u64,
}

impl Default for LinkPredictionConfig {
    fn default() -> Self {
        LinkPredictionConfig {
            holdout: 0.2,
            train_ratio: 0.5,
            repetitions: 10,
            logreg: LogRegConfig::default(),
            seed: 7,
        }
    }
}

/// A prepared link-prediction instance: the temporal split plus balanced
/// positive/negative example pairs. Prepare once, evaluate many methods.
#[derive(Debug)]
pub struct LinkPredictionTask {
    split: TemporalSplit,
    positives: Vec<(NodeId, NodeId)>,
    negatives: Vec<(NodeId, NodeId)>,
    config: LinkPredictionConfig,
}

impl LinkPredictionTask {
    /// Split `graph` temporally and sample balanced negatives.
    ///
    /// # Panics
    /// Panics if the held-out era contains no new node pairs (graph too
    /// small or holdout too small).
    pub fn prepare(graph: &TemporalGraph, config: LinkPredictionConfig) -> Self {
        let split = temporal_split(graph, config.holdout);
        let positives = split.test_edges.clone();
        assert!(!positives.is_empty(), "no future links to predict");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let negatives = sample_negative_pairs(graph, positives.len(), &mut rng);
        assert!(!negatives.is_empty(), "could not sample negative pairs");
        LinkPredictionTask { split, positives, negatives, config }
    }

    /// The network embeddings must be trained on: everything before the
    /// cutoff.
    pub fn train_graph(&self) -> &TemporalGraph {
        &self.split.train
    }

    /// Number of positive examples.
    pub fn num_positives(&self) -> usize {
        self.positives.len()
    }

    /// The underlying temporal split.
    pub fn split(&self) -> &TemporalSplit {
        &self.split
    }

    /// Evaluate one embedding matrix under one operator: average metrics
    /// over `repetitions` random 50/50 classifier splits.
    pub fn evaluate(&self, emb: &NodeEmbeddings, op: EdgeOperator) -> BinaryMetrics {
        let mut features: Vec<Vec<f32>> = Vec::new();
        let mut labels: Vec<bool> = Vec::new();
        for &(a, b) in &self.positives {
            features.push(op.edge_features(emb, a, b));
            labels.push(true);
        }
        for &(a, b) in &self.negatives {
            features.push(op.edge_features(emb, a, b));
            labels.push(false);
        }

        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0xE0A1));
        let n = features.len();
        let train_n = ((self.config.train_ratio * n as f64).round() as usize).clamp(1, n - 1);
        let mut acc = MetricsAccumulator::default();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.config.repetitions {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let train_idx = &order[..train_n];
            let test_idx = &order[train_n..];
            let tr_x: Vec<Vec<f32>> = train_idx.iter().map(|&i| features[i].clone()).collect();
            let tr_y: Vec<bool> = train_idx.iter().map(|&i| labels[i]).collect();
            // Degenerate single-class train split: reshuffle handles it on
            // real sizes; guard for pathological tiny inputs.
            if tr_y.iter().all(|&y| y) || tr_y.iter().all(|&y| !y) {
                continue;
            }
            let model = LogisticRegression::fit(&tr_x, &tr_y, &self.config.logreg);
            let scores: Vec<f64> =
                test_idx.iter().map(|&i| model.predict_proba(&features[i])).collect();
            let te_y: Vec<bool> = test_idx.iter().map(|&i| labels[i]).collect();
            acc.add(&BinaryMetrics::compute(&scores, &te_y));
        }
        acc.mean()
    }
}

#[derive(Default)]
struct MetricsAccumulator {
    auc: f64,
    f1: f64,
    precision: f64,
    recall: f64,
    accuracy: f64,
    count: usize,
}

impl MetricsAccumulator {
    fn add(&mut self, m: &BinaryMetrics) {
        self.auc += m.auc;
        self.f1 += m.f1;
        self.precision += m.precision;
        self.recall += m.recall;
        self.accuracy += m.accuracy;
        self.count += 1;
    }

    fn mean(&self) -> BinaryMetrics {
        let k = self.count.max(1) as f64;
        BinaryMetrics {
            auc: self.auc / k,
            f1: self.f1 / k,
            precision: self.precision / k,
            recall: self.recall / k,
            accuracy: self.accuracy / k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::GraphBuilder;

    /// A graph whose future edges are perfectly predictable from structure:
    /// two cliques filling in pair by pair over time, so the held-out most
    /// recent edges are *new* intra-clique pairs.
    fn growing_cliques() -> TemporalGraph {
        const K: u32 = 8;
        let mut b = GraphBuilder::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..K {
            for j in (i + 1)..K {
                pairs.push((i, j));
            }
        }
        // Deterministic "formation order": low-index pairs first.
        pairs.sort_by_key(|&(i, j)| (i + j, i));
        for (t, &(i, j)) in pairs.iter().enumerate() {
            b.add_edge(i, j, t as i64, 1.0).unwrap();
            b.add_edge(i + K, j + K, t as i64, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    /// Oracle embeddings: clique membership as a ±1 sign on axis 0, so the
    /// Hadamard product is +1 for intra-clique pairs and −1 for
    /// cross-clique pairs — separable on a single axis no matter which
    /// examples land in the classifier's train split.
    fn oracle(n: usize) -> NodeEmbeddings {
        let mut e = NodeEmbeddings::zeros(n, 2);
        for v in 0..n {
            e.get_mut(NodeId(v as u32))[0] = if v >= 8 { -1.0 } else { 1.0 };
        }
        e
    }

    #[test]
    fn task_preparation_is_balanced() {
        let g = growing_cliques();
        let task = LinkPredictionTask::prepare(&g, LinkPredictionConfig::default());
        assert!(task.num_positives() > 0);
        assert_eq!(task.positives.len(), task.negatives.len());
        assert!(task.train_graph().num_edges() < g.num_edges());
    }

    #[test]
    fn oracle_embeddings_predict_links() {
        let g = growing_cliques();
        let task = LinkPredictionTask::prepare(&g, LinkPredictionConfig::default());
        let e = oracle(g.num_nodes());
        // Hadamard on signed clique axes perfectly separates intra- from
        // inter-clique pairs.
        let m = task.evaluate(&e, EdgeOperator::Hadamard);
        assert!(m.auc > 0.95, "oracle auc {:.3}", m.auc);
        assert!(m.f1 > 0.9, "oracle f1 {:.3}", m.f1);
    }

    #[test]
    fn zero_embeddings_are_chance_level() {
        let g = growing_cliques();
        let task = LinkPredictionTask::prepare(&g, LinkPredictionConfig::default());
        let e = NodeEmbeddings::zeros(g.num_nodes(), 4);
        let m = task.evaluate(&e, EdgeOperator::Mean);
        assert!((m.auc - 0.5).abs() < 0.1, "blank auc {:.3}", m.auc);
    }

    #[test]
    fn all_operators_produce_metrics() {
        let g = growing_cliques();
        let task = LinkPredictionTask::prepare(&g, LinkPredictionConfig::default());
        let emb = oracle(g.num_nodes());
        for op in crate::operators::ALL_OPERATORS {
            assert!(task.evaluate(&emb, op).auc.is_finite(), "{op:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = growing_cliques();
        let cfg = LinkPredictionConfig { repetitions: 3, ..Default::default() };
        let t1 = LinkPredictionTask::prepare(&g, cfg.clone());
        let t2 = LinkPredictionTask::prepare(&g, cfg);
        let e = oracle(g.num_nodes());
        let m1 = t1.evaluate(&e, EdgeOperator::WeightedL2);
        let m2 = t2.evaluate(&e, EdgeOperator::WeightedL2);
        assert_eq!(m1, m2);
    }
}
