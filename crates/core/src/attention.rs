//! Temporal attention coefficients (paper Eq. 3 and Eq. 4).
//!
//! Both attention levels combine a *constant* temporal factor (computed
//! here from walk structure and timestamps — gradients do not flow through
//! time) with a *learned* embedding-distance factor (computed inside the
//! autodiff graph by the private `aggregate` module):
//!
//! * node level (Eq. 3):  `α(v,x) = softmax_v( −(1/S_v) · ‖e_x − e_v‖² )`
//!   where `S_v = Σ_{(u,v) ∈ r} τ(t(u,v))` sums the (normalized) times of
//!   the walk interactions incident to `v` — higher for nodes reached
//!   through recent and/or repeated interactions.
//! * walk level (Eq. 4):  `β(r,x) = softmax_r( −γ_r · ‖e_x − h_r‖² )` with
//!   `γ_r = (1/|r|) Σ_{v ∈ r} 1/S_v`.
//!
//! Raw dataset timestamps (epoch seconds, years) would make `1/S`
//! vanish or explode, so τ maps times affinely into `(ε, 1]` over the
//! graph's span — a monotone reparameterization that preserves the
//! positive-correlation-with-recency/frequency semantics of the paper.

use ehna_tgraph::Timestamp;
use ehna_walks::{neighborhood::time_sums, TemporalWalk};

/// Floor of the normalized time unit, keeping `1/S` finite.
const TIME_EPS: f64 = 1e-3;

/// Affine map from raw timestamps into `(ε, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct TimeNormalizer {
    min: i64,
    inv_span: f64,
}

impl TimeNormalizer {
    /// Normalizer over the closed interval `[min_t, max_t]`.
    pub fn new(min_t: Timestamp, max_t: Timestamp) -> Self {
        let span = max_t.delta(min_t).max(1.0);
        TimeNormalizer { min: min_t.raw(), inv_span: 1.0 / span }
    }

    /// Map a timestamp into `(ε, 1]`.
    #[inline]
    pub fn unit(&self, t: Timestamp) -> f64 {
        let x = (t.raw().saturating_sub(self.min)) as f64 * self.inv_span;
        TIME_EPS + (1.0 - TIME_EPS) * x.clamp(0.0, 1.0)
    }

    /// Span-normalized elapsed time `(t_ref − t) / span`, clamped to
    /// `[0, 1]` — the Δt fed to the attention aggregator's Time2Vec
    /// encoding. Walks only visit interactions at `t ≤ t_ref`, so the
    /// clamp is a guard, not a distortion.
    #[inline]
    pub fn elapsed_unit(&self, t_ref: Timestamp, t: Timestamp) -> f64 {
        (t_ref.delta(t) * self.inv_span).clamp(0.0, 1.0)
    }
}

/// The per-position temporal coefficients `1/S_v` of one walk (Eq. 3's
/// constant part). Positions of a singleton walk get `0.0` (their softmax
/// over one element is 1 regardless).
pub fn node_time_coefficients(walk: &TemporalWalk, norm: &TimeNormalizer) -> Vec<f32> {
    let sums = time_sums(walk, |t| norm.unit(t));
    sums.into_iter().map(|s| if s > 0.0 { (1.0 / s) as f32 } else { 0.0 }).collect()
}

/// The walk-level temporal coefficient `γ_r` (Eq. 4's constant part).
/// Singleton walks get `1.0` so their distance term still participates.
pub fn walk_time_coefficient(walk: &TemporalWalk, norm: &TimeNormalizer) -> f32 {
    let coeffs = node_time_coefficients(walk, norm);
    let positive: Vec<f32> = coeffs.into_iter().filter(|&c| c > 0.0).collect();
    if positive.is_empty() {
        return 1.0;
    }
    let mean = positive.iter().sum::<f32>() / walk.nodes.len() as f32;
    mean.max(f32::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::NodeId;

    fn norm01() -> TimeNormalizer {
        TimeNormalizer::new(Timestamp(0), Timestamp(100))
    }

    #[test]
    fn normalizer_maps_into_unit_interval() {
        let n = norm01();
        assert!((n.unit(Timestamp(100)) - 1.0).abs() < 1e-9);
        assert!(n.unit(Timestamp(0)) >= TIME_EPS);
        assert!(n.unit(Timestamp(0)) < 0.01);
        assert!(n.unit(Timestamp(50)) > n.unit(Timestamp(10)));
        // Out-of-range values clamp instead of exploding.
        assert!(n.unit(Timestamp(1_000)) <= 1.0);
        assert!(n.unit(Timestamp(-50)) >= TIME_EPS);
    }

    #[test]
    fn elapsed_unit_is_normalized_and_clamped() {
        let n = norm01();
        assert_eq!(n.elapsed_unit(Timestamp(100), Timestamp(100)), 0.0);
        assert!((n.elapsed_unit(Timestamp(100), Timestamp(0)) - 1.0).abs() < 1e-9);
        assert!((n.elapsed_unit(Timestamp(100), Timestamp(75)) - 0.25).abs() < 1e-9);
        // t after t_ref (shouldn't happen on walks) clamps to zero.
        assert_eq!(n.elapsed_unit(Timestamp(50), Timestamp(80)), 0.0);
    }

    #[test]
    fn degenerate_span_is_safe() {
        let n = TimeNormalizer::new(Timestamp(7), Timestamp(7));
        let u = n.unit(Timestamp(7));
        assert!(u.is_finite() && u >= TIME_EPS);
    }

    #[test]
    fn recent_interactions_get_larger_attention_logits() {
        // Two 2-node walks differing only in interaction time: the more
        // recent one must yield a *smaller* 1/S (larger logit, Eq. 3's
        // positive correlation with recency).
        let recent = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1)],
            times: vec![Timestamp(100), Timestamp(90)],
        };
        let old = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1)],
            times: vec![Timestamp(100), Timestamp(5)],
        };
        let n = norm01();
        let cr = node_time_coefficients(&recent, &n);
        let co = node_time_coefficients(&old, &n);
        assert!(cr[1] < co[1], "recent 1/S {} !< old 1/S {}", cr[1], co[1]);
    }

    #[test]
    fn frequency_reduces_coefficient() {
        // A node touched by two walk edges accumulates a larger S than one
        // touched once => smaller 1/S.
        let twice = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1), NodeId(0)],
            times: vec![Timestamp(100), Timestamp(50), Timestamp(50)],
        };
        let once = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1)],
            times: vec![Timestamp(100), Timestamp(50)],
        };
        let n = norm01();
        let c2 = node_time_coefficients(&twice, &n);
        let c1 = node_time_coefficients(&once, &n);
        assert!(c2[1] < c1[1]);
    }

    #[test]
    fn singleton_walk_coefficients() {
        let w = TemporalWalk { nodes: vec![NodeId(3)], times: vec![Timestamp(10)] };
        let n = norm01();
        assert_eq!(node_time_coefficients(&w, &n), vec![0.0]);
        assert_eq!(walk_time_coefficient(&w, &n), 1.0);
    }

    #[test]
    fn walk_coefficient_prefers_recent_walks() {
        let recent = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            times: vec![Timestamp(100), Timestamp(95), Timestamp(90)],
        };
        let old = TemporalWalk {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            times: vec![Timestamp(100), Timestamp(10), Timestamp(5)],
        };
        let n = norm01();
        // Smaller γ => distances are damped less => recent walks keep more
        // attention mass after softmax.
        assert!(walk_time_coefficient(&recent, &n) < walk_time_coefficient(&old, &n));
    }
}
