//! *Tmall-like* and *yelp-like* user–item bipartite interaction generators.
//!
//! Both networks in the paper connect users to items/businesses through
//! timestamped events (purchases / reviews). The generator draws, for each
//! event, a user from a power-law activity distribution and an item from a
//! Zipfian popularity distribution, with per-user repeat bias (users
//! revisit items they already interacted with).
//!
//! The two presets differ in their **event-time profile**:
//!
//! * [`BipartiteKind::Tmall`] — events concentrate into a sales-burst
//!   window (the "Double 11" shopping day the paper's Tmall dump comes
//!   from): a large share of all interactions land in the final `burst`
//!   fraction of the horizon.
//! * [`BipartiteKind::Yelp`] — steady review cadence spread uniformly over
//!   the horizon with mild weekly seasonality.

use crate::util::{zipf_weights, CumulativeSampler};
use ehna_tgraph::{GraphBuilder, TemporalGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which bipartite event-time profile to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BipartiteKind {
    /// E-commerce purchases with a terminal sales burst.
    Tmall,
    /// Review traffic with a steady cadence.
    Yelp,
}

/// Configuration for [`BipartiteConfig::generate`].
#[derive(Debug, Clone)]
pub struct BipartiteConfig {
    /// Time profile preset.
    pub kind: BipartiteKind,
    /// Number of user nodes (ids `0..num_users`).
    pub num_users: usize,
    /// Number of item nodes (ids `num_users..num_users+num_items`).
    pub num_items: usize,
    /// Total interaction events.
    pub num_events: usize,
    /// Zipf exponent of item popularity.
    pub item_zipf: f64,
    /// Zipf exponent of user activity.
    pub user_zipf: f64,
    /// Probability an event repeats one of the user's previous items.
    pub repeat_bias: f64,
    /// Time horizon in discrete ticks.
    pub horizon: i64,
    /// (Tmall) fraction of the horizon covered by the burst window.
    pub burst_window: f64,
    /// (Tmall) probability an event lands inside the burst window.
    pub burst_mass: f64,
}

impl BipartiteConfig {
    /// Tmall-like preset at a given size.
    pub fn tmall(num_users: usize, num_items: usize, num_events: usize) -> Self {
        BipartiteConfig {
            kind: BipartiteKind::Tmall,
            num_users,
            num_items,
            num_events,
            item_zipf: 1.1,
            user_zipf: 0.9,
            repeat_bias: 0.25,
            horizon: 10_000,
            burst_window: 0.05,
            burst_mass: 0.45,
        }
    }

    /// Yelp-like preset at a given size.
    pub fn yelp(num_users: usize, num_items: usize, num_events: usize) -> Self {
        BipartiteConfig {
            kind: BipartiteKind::Yelp,
            num_users,
            num_items,
            num_events,
            item_zipf: 0.9,
            user_zipf: 1.0,
            repeat_bias: 0.15,
            horizon: 10_000,
            burst_window: 0.0,
            burst_mass: 0.0,
        }
    }

    /// Total node count: users then items.
    pub fn num_nodes(&self) -> usize {
        self.num_users + self.num_items
    }

    /// Generate the interaction network.
    ///
    /// # Panics
    /// Panics if any of the size fields is zero.
    pub fn generate(&self, seed: u64) -> TemporalGraph {
        assert!(self.num_users > 0 && self.num_items > 0 && self.num_events > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        // Shuffle popularity ranks so node id order carries no signal.
        let user_sampler = shuffled_zipf(self.num_users, self.user_zipf, &mut rng);
        let item_sampler = shuffled_zipf(self.num_items, self.item_zipf, &mut rng);

        let mut history: Vec<Vec<u32>> = vec![Vec::new(); self.num_users];
        let mut events: Vec<(u32, u32, i64)> = Vec::with_capacity(self.num_events);
        for _ in 0..self.num_events {
            let user = user_sampler.sample(&mut rng) as u32;
            let item = if !history[user as usize].is_empty() && rng.gen_bool(self.repeat_bias) {
                let h = &history[user as usize];
                h[rng.gen_range(0..h.len())]
            } else {
                (self.num_users + item_sampler.sample(&mut rng)) as u32
            };
            history[user as usize].push(item);
            let t = self.sample_time(&mut rng);
            events.push((user, item, t));
        }
        events.sort_by_key(|&(_, _, t)| t);
        let mut builder = GraphBuilder::with_num_nodes(self.num_nodes());
        builder.reserve(events.len());
        for (u, i, t) in events {
            builder.add_edge(u, i, t, 1.0).expect("validated ids");
        }
        builder.build().expect("num_events > 0")
    }

    fn sample_time<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        match self.kind {
            BipartiteKind::Tmall => {
                let burst_start = ((1.0 - self.burst_window) * self.horizon as f64) as i64;
                if rng.gen_bool(self.burst_mass) {
                    rng.gen_range(burst_start..self.horizon)
                } else {
                    rng.gen_range(0..burst_start.max(1))
                }
            }
            BipartiteKind::Yelp => {
                // Steady cadence with mild weekly seasonality: resample
                // "weekend" ticks with 30% extra acceptance.
                loop {
                    let t = rng.gen_range(0..self.horizon);
                    let day = (t / 100) % 7;
                    if day >= 5 || rng.gen_bool(0.77) {
                        return t;
                    }
                }
            }
        }
    }
}

fn shuffled_zipf<R: Rng + ?Sized>(n: usize, exponent: f64, rng: &mut R) -> CumulativeSampler {
    let mut weights = zipf_weights(n, exponent);
    // Fisher–Yates on the weights.
    for i in (1..weights.len()).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    CumulativeSampler::new(&weights).expect("zipf weights positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehna_tgraph::{GraphStats, NodeId};

    #[test]
    fn bipartite_structure_holds() {
        let cfg = BipartiteConfig::yelp(200, 100, 2_000);
        let g = cfg.generate(3);
        for e in g.edges() {
            let (u, i) = (e.src.0.min(e.dst.0) as usize, e.src.0.max(e.dst.0) as usize);
            assert!(u < cfg.num_users && i >= cfg.num_users, "edge {u}-{i} not user-item");
        }
    }

    #[test]
    fn tmall_burst_concentrates_events() {
        let cfg = BipartiteConfig::tmall(300, 150, 5_000);
        let g = cfg.generate(11);
        let burst_start = ((1.0 - cfg.burst_window) * cfg.horizon as f64) as i64;
        let in_burst =
            g.edges().iter().filter(|e| e.t.raw() >= burst_start).count() as f64 / 5_000.0;
        // 45% of mass in 5% of the horizon.
        assert!(in_burst > 0.35, "burst mass {in_burst:.3} too small");
    }

    #[test]
    fn yelp_is_not_bursty() {
        let cfg = BipartiteConfig::yelp(300, 150, 5_000);
        let g = cfg.generate(11);
        let last5 =
            g.edges().iter().filter(|e| e.t.raw() >= (0.95 * cfg.horizon as f64) as i64).count()
                as f64
                / 5_000.0;
        assert!(last5 < 0.10, "yelp tail mass {last5:.3} unexpectedly bursty");
    }

    #[test]
    fn item_popularity_is_skewed() {
        let cfg = BipartiteConfig::tmall(500, 250, 10_000);
        let g = cfg.generate(5);
        let s = GraphStats::compute(&g);
        assert!(s.degree_gini > 0.4, "gini {:.3}", s.degree_gini);
    }

    #[test]
    fn repeat_interactions_exist() {
        let cfg = BipartiteConfig::tmall(100, 50, 3_000);
        let g = cfg.generate(9);
        let s = GraphStats::compute(&g);
        assert!(
            s.num_static_edges < s.num_temporal_edges,
            "no repeat purchases: {} == {}",
            s.num_static_edges,
            s.num_temporal_edges
        );
    }

    #[test]
    fn deterministic() {
        let cfg = BipartiteConfig::yelp(100, 60, 1_000);
        let a = cfg.generate(2);
        let b = cfg.generate(2);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.degree(NodeId(0)), b.degree(NodeId(0)));
    }
}
