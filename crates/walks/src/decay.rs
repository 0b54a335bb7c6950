//! Time-decay kernels (paper Eq. 1).
//!
//! The paper writes the kernel as `w · exp(-(t_ref - t))` with raw
//! timestamp differences. Real datasets carry epoch-second or year
//! timestamps whose raw differences underflow `exp`, so the practical form
//! divides the difference by a configurable `timescale` (one decade of the
//! graph's span by default). `timescale → ∞` recovers a purely structural
//! walk; tiny timescales make the walk myopically recent.

use ehna_tgraph::Timestamp;

/// A kernel mapping `(t_ref - t, w)` to an unnormalized transition weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayKernel {
    /// `w · exp(-Δ / timescale)` — the paper's kernel with a timescale.
    Exponential {
        /// Characteristic decay time in timestamp units.
        timescale: f64,
    },
    /// `w · max(0, 1 - Δ / horizon)` — linear cutoff, used in ablations.
    Linear {
        /// Time after which the weight reaches zero.
        horizon: f64,
    },
    /// `w` — ignore time entirely (the EHNA-RW ablation's kernel).
    Uniform,
}

impl DecayKernel {
    /// Exponential kernel with its timescale set to a tenth of `span`, the
    /// default used throughout the experiments.
    pub fn exponential_for_span(span: f64) -> Self {
        DecayKernel::Exponential { timescale: (span / 10.0).max(1.0) }
    }

    /// Evaluate the kernel: `t` must not exceed `t_ref` for meaningful
    /// output (callers enforce the relevance constraint first).
    #[inline]
    pub fn weight(&self, t_ref: Timestamp, t: Timestamp, w: f64) -> f64 {
        w * self.factor(t_ref, t)
    }

    /// The time factor of the kernel, so that `weight(t_ref, t, w) ==
    /// w * factor(t_ref, t)` bit for bit. It depends only on the two
    /// timestamps, so callers may evaluate it once per run of equal `t`.
    #[inline]
    pub fn factor(&self, t_ref: Timestamp, t: Timestamp) -> f64 {
        let delta = t_ref.delta(t).max(0.0);
        match *self {
            DecayKernel::Exponential { timescale } => (-delta / timescale).exp(),
            DecayKernel::Linear { horizon } => (1.0 - delta / horizon).max(0.0),
            DecayKernel::Uniform => 1.0,
        }
    }
}

impl Default for DecayKernel {
    /// Exponential with unit timescale; real callers should scale via
    /// [`DecayKernel::exponential_for_span`].
    fn default() -> Self {
        DecayKernel::Exponential { timescale: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_decays_monotonically() {
        let k = DecayKernel::Exponential { timescale: 10.0 };
        let t_ref = Timestamp(100);
        let w0 = k.weight(t_ref, Timestamp(100), 1.0);
        let w1 = k.weight(t_ref, Timestamp(90), 1.0);
        let w2 = k.weight(t_ref, Timestamp(50), 1.0);
        assert!((w0 - 1.0).abs() < 1e-12);
        assert!(w0 > w1 && w1 > w2);
        assert!(w2 > 0.0);
    }

    #[test]
    fn linear_hits_zero() {
        let k = DecayKernel::Linear { horizon: 10.0 };
        assert_eq!(k.weight(Timestamp(20), Timestamp(5), 1.0), 0.0);
        assert!((k.weight(Timestamp(20), Timestamp(15), 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_ignores_time() {
        let k = DecayKernel::Uniform;
        assert_eq!(k.weight(Timestamp(1_000_000), Timestamp(0), 3.0), 3.0);
    }

    #[test]
    fn weight_scales_linearly_in_w() {
        let k = DecayKernel::Exponential { timescale: 5.0 };
        let a = k.weight(Timestamp(10), Timestamp(8), 1.0);
        let b = k.weight(Timestamp(10), Timestamp(8), 2.5);
        assert!((b / a - 2.5).abs() < 1e-12);
    }

    #[test]
    fn weight_is_w_times_factor_bit_for_bit() {
        let kernels = [
            DecayKernel::Exponential { timescale: 3.7 },
            DecayKernel::Linear { horizon: 11.0 },
            DecayKernel::Uniform,
        ];
        for k in kernels {
            for t in [-5i64, 0, 3, 9, 20, 40] {
                for w in [0.3, 1.0, 2.5, 1e-300] {
                    let f = k.factor(Timestamp(20), Timestamp(t));
                    let got = k.weight(Timestamp(20), Timestamp(t), w);
                    assert_eq!(got.to_bits(), (w * f).to_bits(), "{k:?} t={t} w={w}");
                }
            }
        }
    }

    #[test]
    fn span_constructor_guards_zero() {
        match DecayKernel::exponential_for_span(0.0) {
            DecayKernel::Exponential { timescale } => assert!(timescale >= 1.0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn future_times_are_clamped() {
        // Defensive: Δ is clamped at 0 so "future" edges don't explode.
        let k = DecayKernel::Exponential { timescale: 1.0 };
        assert_eq!(k.weight(Timestamp(0), Timestamp(100), 1.0), 1.0);
    }
}
