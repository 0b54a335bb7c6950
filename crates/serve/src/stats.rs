//! Lock-free serving telemetry: request counters plus a log-bucketed
//! latency histogram answering p50/p95/p99 queries.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds, so 40 buckets span ~1 µs to ~18 min.
const BUCKETS: usize = 40;

/// A histogram of request latencies with power-of-two microsecond
/// buckets. Recording is a single relaxed atomic increment; quantiles are
/// approximate (upper bound of the containing bucket).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.total_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate `q`-quantile (e.g. 0.5, 0.95, 0.99) in microseconds:
    /// the upper edge of the first bucket whose cumulative count reaches
    /// `q * total`. Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

/// Add 1 to a counter without ever wrapping: cluster dashboards diff
/// these values, and a silent wrap to 0 would read as a huge negative
/// rate. Saturation at `u64::MAX` is the honest failure mode.
pub fn saturating_inc(counter: &AtomicU64) {
    // `fetch_update` with Relaxed/Relaxed never fails spuriously; the
    // loop only retries on genuine contention.
    let _ =
        counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(1)));
}

/// What a serving process is, from the cluster's point of view. Surfaced
/// through the `stats` op so dashboards can tell nodes apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// A single-process server over the whole table (the pre-cluster
    /// deployment shape).
    #[default]
    Standalone,
    /// One partition of a sharded table, serving EHNP shard traffic.
    Shard,
    /// The scatter-gather front door of a sharded cluster.
    Router,
}

impl Role {
    /// Wire label of the role (`"standalone"` / `"shard"` / `"router"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Shard => "shard",
            Role::Router => "router",
        }
    }

    fn from_u8(raw: u8) -> Role {
        match raw {
            1 => Role::Shard,
            2 => Role::Router,
            _ => Role::Standalone,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Role::Standalone => 0,
            Role::Shard => 1,
            Role::Router => 2,
        }
    }
}

/// Sentinel for "no shard id assigned" in the atomic identity fields.
const NO_SHARD: u64 = u64::MAX;

/// Per-op request counters (saturating, never wrapping). An op is
/// counted when it is dispatched, whether or not it succeeds, so the
/// totals reconcile with `requests` per node and across a cluster.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// `ping` requests.
    pub ping: AtomicU64,
    /// `knn` requests (by node or by vector).
    pub knn: AtomicU64,
    /// `score` requests.
    pub score: AtomicU64,
    /// `stats` requests.
    pub stats: AtomicU64,
    /// `reload` requests.
    pub reload: AtomicU64,
    /// `batch` envelopes (sub-requests count toward their own ops too).
    pub batch: AtomicU64,
    /// EHNP `resolve` / row-fetch requests (shards only).
    pub resolve: AtomicU64,
}

impl OpCounters {
    /// Count one dispatched request of op `name` (unknown ops are not
    /// counted — they never reach a handler).
    pub fn record(&self, name: &str) {
        let counter = match name {
            "ping" => &self.ping,
            "knn" => &self.knn,
            "score" => &self.score,
            "stats" => &self.stats,
            "reload" => &self.reload,
            "batch" => &self.batch,
            "resolve" => &self.resolve,
            _ => return,
        };
        saturating_inc(counter);
    }

    fn snapshot(&self) -> OpCounts {
        OpCounts {
            ping: self.ping.load(Ordering::Relaxed),
            knn: self.knn.load(Ordering::Relaxed),
            score: self.score.load(Ordering::Relaxed),
            stats: self.stats.load(Ordering::Relaxed),
            reload: self.reload.load(Ordering::Relaxed),
            batch: self.batch.load(Ordering::Relaxed),
            resolve: self.resolve.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`OpCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// `ping` requests.
    pub ping: u64,
    /// `knn` requests.
    pub knn: u64,
    /// `score` requests.
    pub score: u64,
    /// `stats` requests.
    pub stats: u64,
    /// `reload` requests.
    pub reload: u64,
    /// `batch` envelopes.
    pub batch: u64,
    /// `resolve` requests.
    pub resolve: u64,
}

/// Counters for the query engine and the serving layer above it, all
/// relaxed atomics.
#[derive(Debug)]
pub struct EngineStats {
    /// Per-request latency of engine-served queries (call → answer).
    pub latency: LatencyHistogram,
    /// Requests answered from the hot-node cache.
    pub cache_hits: AtomicU64,
    /// Requests computed against the index.
    pub cache_misses: AtomicU64,
    /// Requests refused as malformed or over the configured limits
    /// (bad JSON, invalid `k`, too many pairs, oversized request line).
    pub rejected: AtomicU64,
    /// Connections dropped because a socket read or write timed out
    /// (slow-loris or stalled clients).
    pub timeouts: AtomicU64,
    /// Connections shed at the admission gate with an `overloaded`
    /// response because the server was at `max_connections`.
    pub overloads: AtomicU64,
    /// Hot swaps performed (`reload` requests that installed a snapshot).
    pub reloads: AtomicU64,
    /// Version of the snapshot currently served (starts at 1; equals
    /// `reloads + 1` when all swaps came through one engine).
    pub snapshot_version: AtomicU64,
    /// Unix timestamp (seconds) of the last completed hot swap; 0 when
    /// the engine has never swapped.
    pub last_reload_unix: AtomicU64,
    /// Per-op request counters (saturating).
    pub ops: OpCounters,
    /// Cluster role of this process (see [`Role`]), stored as its wire
    /// discriminant so it can be set after the engine is shared.
    role: AtomicU8,
    /// Shard id when `role == Shard`; [`NO_SHARD`] otherwise.
    shard_id: AtomicU64,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            latency: LatencyHistogram::default(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            overloads: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            snapshot_version: AtomicU64::new(0),
            last_reload_unix: AtomicU64::new(0),
            ops: OpCounters::default(),
            role: AtomicU8::new(Role::Standalone.as_u8()),
            shard_id: AtomicU64::new(NO_SHARD),
        }
    }
}

/// A point-in-time copy of [`EngineStats`], safe to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Total requests recorded: engine-served (`knn` / `score`) plus
    /// refused (`rejected`). Every `knn` request is either a cache hit
    /// or a miss, so for knn-only traffic
    /// `requests == cache_hits + cache_misses + rejected` holds exactly;
    /// `score` requests count here without touching the cache counters.
    pub requests: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Requests refused as malformed or over the configured limits.
    pub rejected: u64,
    /// Connections dropped on a socket read/write timeout.
    pub timeouts: u64,
    /// Connections shed at the admission gate (`overloaded` response).
    pub overloads: u64,
    /// Hot swaps performed.
    pub reloads: u64,
    /// Version of the snapshot currently served.
    pub snapshot_version: u64,
    /// Unix timestamp (seconds) of the last hot swap; 0 = never.
    pub last_reload_unix: u64,
    /// Cluster role of this process.
    pub role: Role,
    /// Shard id (only `Some` for shard processes).
    pub shard_id: Option<u32>,
    /// Per-op request counts.
    pub ops: OpCounts,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Approximate latency quantiles, microseconds.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
}

impl EngineStats {
    /// Declare what this process is: a role, plus the shard id for shard
    /// processes. Called once at startup, after the engine is built.
    pub fn set_identity(&self, role: Role, shard_id: Option<u32>) {
        self.role.store(role.as_u8(), Ordering::Relaxed);
        let raw = shard_id.map(|s| s as u64).unwrap_or(NO_SHARD);
        self.shard_id.store(raw, Ordering::Relaxed);
    }

    /// Cluster role of this process.
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Relaxed))
    }

    /// Shard id, when this process serves one shard of a cluster.
    pub fn shard_id(&self) -> Option<u32> {
        match self.shard_id.load(Ordering::Relaxed) {
            NO_SHARD => None,
            raw => Some(raw as u32),
        }
    }

    /// Snapshot every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let rejected = self.rejected.load(Ordering::Relaxed);
        StatsSnapshot {
            requests: self.latency.count() + rejected,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            rejected,
            timeouts: self.timeouts.load(Ordering::Relaxed),
            overloads: self.overloads.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            snapshot_version: self.snapshot_version.load(Ordering::Relaxed),
            last_reload_unix: self.last_reload_unix.load(Ordering::Relaxed),
            mean_us: self.latency.mean_us(),
            p50_us: self.latency.quantile_us(0.50),
            p95_us: self.latency.quantile_us(0.95),
            p99_us: self.latency.quantile_us(0.99),
            role: self.role(),
            shard_id: self.shard_id(),
            ops: self.ops.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn quantiles_bracket_samples() {
        let h = LatencyHistogram::default();
        // 99 fast samples (~8 µs) and one slow (~8 ms).
        for _ in 0..99 {
            h.record(Duration::from_micros(8));
        }
        h.record(Duration::from_millis(8));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.5);
        assert!((8..=16).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p50 <= p99);
        let p100 = h.quantile_us(1.0);
        assert!(p100 >= 8_000, "p100 {p100} misses the slow sample");
        assert!(h.mean_us() > 8.0 && h.mean_us() < 8_000.0);
    }

    #[test]
    fn subzero_and_huge_samples_clamp() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert!(h.quantile_us(1.0) > 0);
    }

    #[test]
    fn snapshot_copies_counters() {
        let s = EngineStats::default();
        s.latency.record(Duration::from_micros(5));
        s.cache_hits.fetch_add(2, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.cache_hits, 2);
        assert!(snap.p50_us > 0);
    }

    #[test]
    fn saturating_inc_never_wraps() {
        let c = AtomicU64::new(u64::MAX - 1);
        saturating_inc(&c);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
        saturating_inc(&c);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX, "saturates, never wraps");
    }

    #[test]
    fn op_counters_record_known_ops_only() {
        let ops = OpCounters::default();
        for op in ["ping", "knn", "knn", "score", "stats", "reload", "batch", "resolve"] {
            ops.record(op);
        }
        ops.record("no-such-op");
        let snap = ops.snapshot();
        assert_eq!(snap.ping, 1);
        assert_eq!(snap.knn, 2);
        assert_eq!(snap.score, 1);
        assert_eq!(snap.stats, 1);
        assert_eq!(snap.reload, 1);
        assert_eq!(snap.batch, 1);
        assert_eq!(snap.resolve, 1);
    }

    #[test]
    fn identity_defaults_and_round_trips() {
        let s = EngineStats::default();
        assert_eq!(s.role(), Role::Standalone);
        assert_eq!(s.shard_id(), None);
        s.set_identity(Role::Shard, Some(3));
        let snap = s.snapshot();
        assert_eq!(snap.role, Role::Shard);
        assert_eq!(snap.shard_id, Some(3));
        s.set_identity(Role::Router, None);
        assert_eq!(s.role(), Role::Router);
        assert_eq!(s.shard_id(), None);
        assert_eq!(Role::Router.as_str(), "router");
    }

    #[test]
    fn rejected_requests_count_toward_requests() {
        let s = EngineStats::default();
        s.latency.record(Duration::from_micros(5));
        s.cache_misses.fetch_add(1, Ordering::Relaxed);
        s.rejected.fetch_add(3, Ordering::Relaxed);
        s.timeouts.fetch_add(2, Ordering::Relaxed);
        s.overloads.fetch_add(4, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4, "requests = engine-served + rejected");
        assert_eq!(snap.requests, snap.cache_hits + snap.cache_misses + snap.rejected);
        assert_eq!(snap.timeouts, 2);
        assert_eq!(snap.overloads, 4);
    }
}
