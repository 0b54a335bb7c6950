//! L2-regularized logistic regression — the LIBLINEAR substitute used to
//! classify edge representations in the link-prediction task (§V-E).
//!
//! The paper trains the same classifier for every method so embeddings are
//! "compared on an equal footing"; the property that matters is identical
//! treatment, not the exact solver. This implementation uses full-batch
//! gradient descent with backtracking-free adaptive step size and early
//! stopping on loss plateau, which reaches the same optimum as coordinate
//! descent on these small dense problems.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Logistic-regression hyperparameters.
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    /// L2 regularization strength λ (LIBLINEAR's `1/C`, scaled by n).
    pub l2: f64,
    /// Maximum gradient-descent iterations.
    pub max_iters: usize,
    /// Initial step size.
    pub lr: f64,
    /// Stop when the relative loss improvement falls below this.
    pub tol: f64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig { l2: 1e-4, max_iters: 500, lr: 0.5, tol: 1e-6 }
    }
}

/// A trained binary logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Fit on a dense feature matrix (`rows × dim`, row-major) with boolean
    /// labels.
    ///
    /// # Panics
    /// Panics on empty or ragged input.
    pub fn fit(features: &[Vec<f32>], labels: &[bool], config: &LogRegConfig) -> Self {
        assert!(!features.is_empty(), "no training rows");
        assert_eq!(features.len(), labels.len(), "rows/labels mismatch");
        let d = features[0].len();
        assert!(features.iter().all(|f| f.len() == d), "ragged feature rows");
        let n = features.len() as f64;

        let mut rng = StdRng::seed_from_u64(0xC1A551F1);
        let mut w: Vec<f64> = (0..d).map(|_| rng.gen_range(-1e-3..1e-3)).collect();
        let mut b = 0.0f64;
        let mut lr = config.lr;
        let mut prev_loss = f64::INFINITY;
        let mut grad = vec![0.0f64; d];

        for _ in 0..config.max_iters {
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut grad_b = 0.0f64;
            let mut loss = 0.0f64;
            for (row, &y) in features.iter().zip(labels) {
                let z: f64 = row.iter().zip(&w).map(|(&x, &wi)| x as f64 * wi).sum::<f64>() + b;
                let p = 1.0 / (1.0 + (-z).exp());
                let target = if y { 1.0 } else { 0.0 };
                let err = p - target;
                for (g, &x) in grad.iter_mut().zip(row) {
                    *g += err * x as f64;
                }
                grad_b += err;
                // Numerically-stable log loss.
                loss += if y { -log_sigmoid(z) } else { -log_sigmoid(-z) };
            }
            loss = loss / n + 0.5 * config.l2 * w.iter().map(|x| x * x).sum::<f64>();
            // Adaptive step: shrink when the loss went up.
            if loss > prev_loss {
                lr *= 0.5;
            }
            if (prev_loss - loss).abs() < config.tol * prev_loss.abs().max(1.0) {
                break;
            }
            prev_loss = loss;
            for i in 0..d {
                w[i] -= lr * (grad[i] / n + config.l2 * w[i]);
            }
            b -= lr * grad_b / n;
        }
        LogisticRegression { weights: w, bias: b }
    }

    /// Predicted probability of the positive class.
    pub fn predict_proba(&self, features: &[f32]) -> f64 {
        debug_assert_eq!(features.len(), self.weights.len());
        let z: f64 = features.iter().zip(&self.weights).map(|(&x, &w)| x as f64 * w).sum::<f64>()
            + self.bias;
        1.0 / (1.0 + (-z).exp())
    }
}

/// `log σ(z)` computed without overflow.
fn log_sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        -(1.0 + (-z).exp()).ln()
    } else {
        z - (1.0 + z.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable blobs around (±1, ±1).
    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { 1.0 } else { -1.0 };
            xs.push(vec![c + rng.gen_range(-0.4..0.4f32), c + rng.gen_range(-0.4..0.4f32)]);
            ys.push(pos);
        }
        (xs, ys)
    }

    #[test]
    fn separable_data_is_learned() {
        let (xs, ys) = blobs(200, 1);
        let model = LogisticRegression::fit(&xs, &ys, &LogRegConfig::default());
        let correct =
            xs.iter().zip(&ys).filter(|(x, &y)| (model.predict_proba(x) >= 0.5) == y).count();
        assert!(correct >= 195, "only {correct}/200 correct");
    }

    #[test]
    fn probabilities_are_calibrated_direction() {
        let (xs, ys) = blobs(100, 2);
        let model = LogisticRegression::fit(&xs, &ys, &LogRegConfig::default());
        let strong_pos = model.predict_proba(&[2.0, 2.0]);
        let strong_neg = model.predict_proba(&[-2.0, -2.0]);
        assert!(strong_pos > 0.9, "{strong_pos}");
        assert!(strong_neg < 0.1, "{strong_neg}");
    }

    #[test]
    fn regularization_shrinks_weights() {
        let (xs, ys) = blobs(100, 3);
        let weak =
            LogisticRegression::fit(&xs, &ys, &LogRegConfig { l2: 1e-6, ..Default::default() });
        let strong =
            LogisticRegression::fit(&xs, &ys, &LogRegConfig { l2: 1.0, ..Default::default() });
        let norm = |m: &LogisticRegression| m.weights.iter().map(|w| w * w).sum::<f64>();
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn log_sigmoid_is_stable() {
        assert!(log_sigmoid(1000.0).abs() < 1e-9);
        assert!((log_sigmoid(-1000.0) + 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no training rows")]
    fn empty_input_panics() {
        LogisticRegression::fit(&[], &[], &LogRegConfig::default());
    }
}
