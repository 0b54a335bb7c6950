//! The JSON request layer: one request line in, one response document
//! out, for every role that speaks the line protocol.
//!
//! [`handle_line`] owns the whole wire contract. It parses the line
//! (counting and rejecting malformed input), records the op, validates
//! `k` (the empty-table check, the default-`k` derivation and the
//! bounds), enforces [`RequestLimits`], parses `node` / `vector` and
//! `pairs`, refuses control ops inside `batch`, and renders every
//! envelope: errors, `ping`, the `knn` neighbour list, `score` and
//! `batch`. Every validation message is written here once.
//!
//! What differs between roles sits behind [`Backend`]: how a key
//! resolves, how a knn or a score is computed, the `stats` document,
//! `reload`, and which [`EngineStats`] to count in. The standalone
//! engine and the cluster router are the two backends, so a router
//! cannot drift from the standalone server's bytes by construction.

use crate::json::Json;
use crate::stats::{EngineStats, OpCounts};
use crate::ServeError;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Per-request protocol limits, enforced before any work is queued.
#[derive(Debug, Clone)]
pub struct RequestLimits {
    /// Largest `k` a `knn` request may ask for.
    pub max_k: usize,
    /// Largest number of pairs a `score` request may submit.
    pub max_pairs: usize,
    /// Largest number of sub-requests a `batch` envelope may carry.
    pub max_batch: usize,
}

impl Default for RequestLimits {
    fn default() -> Self {
        RequestLimits { max_k: 1024, max_pairs: 4096, max_batch: 256 }
    }
}

/// One neighbour as rendered on the wire: `(distance, node id, label)`.
pub type Hit = (f64, u32, String);

/// The query side of a `knn` request.
#[derive(Debug)]
pub enum KnnQuery<N> {
    /// Neighbours of a resolved node (the node itself is excluded).
    Node(N),
    /// Neighbours of a raw query vector.
    Vector(Vec<f32>),
}

/// A backend's answer to one validated `knn`.
#[derive(Debug)]
pub struct KnnAnswer {
    /// Nearest first, at most `k`.
    pub neighbors: Arc<Vec<Hit>>,
    /// Whether the answer came from a cache (the wire's `cached` flag).
    pub cached: bool,
    /// The role's `explain` object, when one was asked for.
    pub explain: Option<Json>,
}

/// What a role behind the JSON request layer computes. Errors are the
/// client-visible message, already rendered.
pub trait Backend {
    /// A resolved node key.
    type Node: Clone;

    /// The counters requests, rejections and per-op totals go into.
    fn stats(&self) -> &EngineStats;

    /// Rows in the served table (the upper bound on `k`).
    fn num_nodes(&self) -> usize;

    /// Resolve a client-supplied node key; unknown keys are errors.
    fn resolve(&self, key: &str) -> Result<Self::Node, String>;

    /// The `k` nearest neighbours of a validated query.
    fn knn(
        &self,
        query: KnnQuery<Self::Node>,
        k: usize,
        explain: bool,
    ) -> Result<KnnAnswer, String>;

    /// Eq. 5 link scores of resolved pairs, in order.
    fn score(&self, pairs: Vec<(Self::Node, Self::Node)>) -> Result<Vec<f64>, String>;

    /// The `stats` response document.
    fn stats_doc(&self) -> Json;

    /// The `reload` response document.
    fn reload(&self) -> Result<Json, String>;

    /// Called once per top-level request that dispatched successfully,
    /// with the time dispatch started.
    fn served(&self, _started: Instant) {}
}

/// Answer one request line with one response document. Never panics on
/// malformed input: failures answer `"ok":false` and count in
/// `rejected`.
pub fn handle_line<B: Backend>(backend: &B, limits: &RequestLimits, line: &str) -> Json {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return reject(backend.stats(), &format!("bad json: {e}")),
    };
    let started = Instant::now();
    match dispatch(backend, limits, &request) {
        Ok(resp) => {
            backend.served(started);
            resp
        }
        Err(msg) => reject(backend.stats(), &msg),
    }
}

/// The `{"ok":false,"error":...}` envelope.
pub(crate) fn error_response(message: &str) -> Json {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(message.to_string()))])
}

/// Per-op counters as a JSON object (every role's `stats` carries one).
pub fn op_counts_json(ops: &OpCounts) -> Json {
    Json::obj([
        ("ping", Json::Num(ops.ping as f64)),
        ("knn", Json::Num(ops.knn as f64)),
        ("score", Json::Num(ops.score as f64)),
        ("stats", Json::Num(ops.stats as f64)),
        ("reload", Json::Num(ops.reload as f64)),
        ("batch", Json::Num(ops.batch as f64)),
        ("resolve", Json::Num(ops.resolve as f64)),
    ])
}

/// A malformed-request message, as every role words it.
pub(crate) fn bad_request(msg: impl Into<String>) -> String {
    ServeError::BadRequest(msg.into()).to_string()
}

fn reject(stats: &EngineStats, msg: &str) -> Json {
    stats.rejected.fetch_add(1, Ordering::Relaxed);
    error_response(msg)
}

fn dispatch<B: Backend>(
    backend: &B,
    limits: &RequestLimits,
    request: &Json,
) -> Result<Json, String> {
    let op = request.get("op").and_then(Json::as_str).ok_or_else(|| bad_request("missing 'op'"))?;
    // Dispatched == counted (success or not), so per-op totals reconcile
    // with `requests` across a cluster; unknown ops are only counted in
    // `rejected`.
    backend.stats().ops.record(op);
    match op {
        "ping" => Ok(Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))])),
        "knn" => knn(backend, limits, request),
        "score" => score(backend, limits, request),
        "stats" => Ok(backend.stats_doc()),
        "reload" => backend.reload(),
        "batch" => batch(backend, limits, request),
        other => Err(bad_request(format!("unknown op '{other}'"))),
    }
}

/// A node key as the client spelled it: a string, or a non-negative
/// integer taken as its decimal spelling.
fn node_key(v: &Json) -> Option<String> {
    v.as_str().map(str::to_string).or_else(|| v.as_usize().map(|i| i.to_string()))
}

fn limit_error(field: &str, limit: usize, got: usize) -> String {
    bad_request(format!("'{field}' exceeds the server limit of {limit} (got {got})"))
}

fn knn<B: Backend>(backend: &B, limits: &RequestLimits, request: &Json) -> Result<Json, String> {
    let num_nodes = backend.num_nodes();
    // Reject before k parsing: no k is valid against zero rows, and the
    // default-k path must not manufacture one.
    if num_nodes == 0 {
        return Err(bad_request("knn on an empty table"));
    }
    let k = match request.get("k") {
        Some(v) => {
            let k = v.as_usize().ok_or_else(|| bad_request("bad 'k'"))?;
            if k == 0 || k > num_nodes {
                return Err(bad_request(format!(
                    "'k' must be between 1 and {num_nodes} (got {k})"
                )));
            }
            if k > limits.max_k {
                return Err(limit_error("k", limits.max_k, k));
            }
            k
        }
        None => 10.min(limits.max_k).min(num_nodes),
    };
    let explain = request.get("explain").and_then(Json::as_bool).unwrap_or(false);
    let query = match (request.get("node"), request.get("vector")) {
        (Some(node), None) => {
            let key = node_key(node).ok_or_else(|| bad_request("bad 'node'"))?;
            KnnQuery::Node(backend.resolve(&key)?)
        }
        (None, Some(vector)) => {
            let items = vector.as_arr().ok_or_else(|| bad_request("'vector' must be an array"))?;
            let q = items
                .iter()
                .map(|v| v.as_f64().map(|x| x as f32))
                .collect::<Option<_>>()
                .ok_or_else(|| bad_request("non-numeric vector entry"))?;
            KnnQuery::Vector(q)
        }
        _ => return Err(bad_request("need exactly one of 'node' or 'vector'")),
    };
    let answer = backend.knn(query, k, explain)?;
    let neighbors = answer
        .neighbors
        .iter()
        .map(|(dist, id, label)| {
            Json::obj([
                ("node", Json::Str(label.clone())),
                ("id", Json::Num(*id as f64)),
                ("dist", Json::Num(*dist)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("k".to_string(), Json::Num(k as f64)),
        ("neighbors".to_string(), Json::Arr(neighbors)),
        ("cached".to_string(), Json::Bool(answer.cached)),
    ];
    if let Some(explain) = answer.explain {
        fields.push(("explain".to_string(), explain));
    }
    Ok(Json::Obj(fields))
}

fn score<B: Backend>(backend: &B, limits: &RequestLimits, request: &Json) -> Result<Json, String> {
    let pairs_json = request
        .get("pairs")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad_request("'pairs' must be an array"))?;
    if pairs_json.len() > limits.max_pairs {
        return Err(limit_error("pairs", limits.max_pairs, pairs_json.len()));
    }
    // Each distinct key resolves once per request (on the router a
    // resolution is a scatter). Endpoints are checked and resolved in
    // request order, so the first bad endpoint names the error.
    let mut resolved: HashMap<String, B::Node> = HashMap::new();
    let mut resolve = |v: &Json| -> Result<B::Node, String> {
        let key = node_key(v).ok_or_else(|| bad_request("bad pair endpoint"))?;
        if let Some(node) = resolved.get(&key) {
            return Ok(node.clone());
        }
        let node = backend.resolve(&key)?;
        resolved.insert(key, node.clone());
        Ok(node)
    };
    let mut pairs = Vec::with_capacity(pairs_json.len());
    for p in pairs_json {
        let items = p
            .as_arr()
            .filter(|items| items.len() == 2)
            .ok_or_else(|| bad_request("each pair must be [src, dst]"))?;
        pairs.push((resolve(&items[0])?, resolve(&items[1])?));
    }
    let scores = backend.score(pairs)?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("scores", Json::Arr(scores.into_iter().map(Json::Num).collect())),
    ]))
}

/// Run a bounded list of sub-requests in order and return their
/// responses in one envelope. Sub-request failures are reported in
/// place (and counted in `rejected`) without failing the envelope;
/// `reload` and nested `batch` are refused before dispatch, uncounted
/// as ops: a batch is a read-path convenience, not a control plane.
fn batch<B: Backend>(backend: &B, limits: &RequestLimits, request: &Json) -> Result<Json, String> {
    let requests = request
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad_request("'requests' must be an array"))?;
    if requests.len() > limits.max_batch {
        return Err(limit_error("requests", limits.max_batch, requests.len()));
    }
    let responses = requests
        .iter()
        .map(|sub| {
            let resp = match sub.get("op").and_then(Json::as_str) {
                Some("batch" | "reload") => Err("op not allowed inside a batch".to_string()),
                _ => dispatch(backend, limits, sub),
            };
            resp.unwrap_or_else(|msg| reject(backend.stats(), &msg))
        })
        .collect();
    Ok(Json::obj([("ok", Json::Bool(true)), ("responses", Json::Arr(responses))]))
}
