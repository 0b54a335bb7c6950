//! Inference (paper §IV-D, last paragraph): every entry point turns
//! `(node, t_ref)` targets into rows through [`embed_targets`], so a row
//! depends on the model, the graph, the node and `t_ref` only — not on the
//! other targets, the chunking, the thread count, or any training RNG.

use crate::aggregate::{aggregate_batch, aggregate_fallback};
use crate::model::EhnaModel;
use ehna_nn::Graph;
use ehna_tgraph::{NodeEmbeddings, NodeId, TemporalGraph, Timestamp};
use ehna_walks::NeighborhoodSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Salt separating inference walk and fallback streams from the training
/// walk seeds (which are derived from `(seed, epoch, batch)`).
const REFRESH_WALK_SALT: u64 = 0x5EF1_E54E_D000_0003;

/// Each node's §IV-D reference time: just after its latest interaction,
/// so that interaction is part of its history; `Timestamp::MAX` for a
/// node without any.
pub(crate) fn latest_targets(
    graph: &TemporalGraph,
    nodes: impl Iterator<Item = NodeId>,
) -> Vec<(NodeId, Timestamp)> {
    nodes
        .map(|v| match graph.latest_interaction(v) {
            Some(last) => (v, Timestamp(last.t.raw().saturating_add(1))),
            None => (v, Timestamp::MAX),
        })
        .collect()
}

/// Aggregate every target and hand row `i` (`dim` floats) to `put(i, row)`.
///
/// A target whose node interacts at all runs through the walk network on
/// walks before `t_ref` keyed by node id; with no history before `t_ref`
/// they are singletons, as for a brand-new edge endpoint in training. A
/// node that never interacts takes the §IV-D fallback, which pools it over
/// itself. Both go in chunks of `batch_size` on `tape`, with batch-norm in
/// eval mode (row-independent).
pub(crate) fn embed_targets(
    model: &mut EhnaModel,
    graph: &TemporalGraph,
    targets: &[(NodeId, Timestamp)],
    tape: &mut Graph,
    mut put: impl FnMut(usize, &[f32]),
) {
    let d = model.config.dim;
    let bs = model.config.batch_size.max(2);
    let threads = model.config.threads;
    let seed = model.config.seed ^ REFRESH_WALK_SALT;
    let (walked, fallback): (Vec<usize>, Vec<usize>) =
        (0..targets.len()).partition(|&i| graph.degree(targets[i].0) > 0);
    let sampler = NeighborhoodSampler::new(graph, model.walk_config(graph), model.config.num_walks);
    for (indices, walks) in [(&walked, true), (&fallback, false)] {
        for chunk in indices.chunks(bs) {
            let batch: Vec<(NodeId, Timestamp)> = chunk.iter().map(|&i| targets[i]).collect();
            let z = if walks {
                let hns = sampler.sample_batch_keyed(&batch, threads, seed);
                aggregate_batch(model, tape, &hns, false)
            } else {
                // A node without neighbours draws nothing from the stream.
                aggregate_fallback(model, tape, graph, &batch, &mut StdRng::seed_from_u64(seed))
            };
            for (row, &i) in tape.value(z).chunks_exact(d).zip(chunk) {
                put(i, row);
            }
            tape.recycle();
        }
    }
}

/// Re-aggregate only `nodes` into `out`, each against its latest
/// interaction, leaving every other row untouched: bit for bit the rows
/// [`Trainer::embeddings`](crate::Trainer::embeddings) computes, with no
/// trainer around the model. Sets the kernel worker budget from the
/// model's config, as the trainer's constructors do.
///
/// # Errors
/// Rejects a model or `out` table whose shape does not match the graph,
/// or a node id outside the graph.
pub fn refresh_rows(
    model: &mut EhnaModel,
    graph: &TemporalGraph,
    out: &mut NodeEmbeddings,
    nodes: &[NodeId],
) -> Result<(), String> {
    ehna_nn::kernels::set_threads(ehna_nn::kernels::resolve_threads(model.config.threads));
    refresh_rows_on(model, graph, out, nodes, &mut Graph::new())
}

/// [`refresh_rows`] on a caller's tape.
pub(crate) fn refresh_rows_on(
    model: &mut EhnaModel,
    graph: &TemporalGraph,
    out: &mut NodeEmbeddings,
    nodes: &[NodeId],
    tape: &mut Graph,
) -> Result<(), String> {
    let (n, d) = (graph.num_nodes(), model.config.dim);
    if model.num_nodes() != n || out.num_nodes() != n || out.dim() != d {
        let (m, rows, cols) = (model.num_nodes(), out.num_nodes(), out.dim());
        return Err(format!("model of {m} nodes and {rows}x{cols} table, graph needs {n}x{d}"));
    }
    if let Some(v) = nodes.iter().find(|v| v.index() >= n) {
        return Err(format!("node id {} out of range for graph with {n} nodes", v.0));
    }
    let targets = latest_targets(graph, nodes.iter().copied());
    embed_targets(model, graph, &targets, tape, |i, row| {
        out.get_mut(targets[i].0).copy_from_slice(row)
    });
    Ok(())
}
