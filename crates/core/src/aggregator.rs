//! The pluggable node-level aggregation stage.
//!
//! Algorithm 1's line 4 summarizes every walk (unit) into one `d`-vector.
//! The paper does it with temporal attention + a stacked LSTM; that walk
//! through is inherently sequential in walk length. The [`Aggregator`]
//! trait carves the stage out so alternatives can slot in, and ships two:
//!
//! * [`LstmAggregator`] — the paper's path, bit-for-bit the pre-trait
//!   implementation (length-grouped LSTM unrolling, Eq. 3 attention).
//! * [`AttnAggregator`] — a Time2Vec + multi-head scaled-dot-product
//!   attention variant that processes all walk nodes of the whole batch
//!   at once: pad every unit to the batch's longest walk, one embedding
//!   gather, batched GEMM projections, and the fused
//!   `Graph::temporal_attention` op. No sequential dependency in walk
//!   length, so throughput scales with GEMM efficiency instead of
//!   unrolled LSTM steps.
//!
//! Everything downstream of the unit representations — batch-norm, the
//! walk-level stage, the readout — is shared
//! (`aggregate::finish_from_unit_reps`), so the two aggregators differ
//! only in how a unit becomes a vector.

use crate::aggregate::{build_units, concat_cols_all, finish_from_unit_reps};
use crate::attention::node_time_coefficients;
use crate::config::AggregatorKind;
use crate::model::{EhnaModel, NodeStage};
use ehna_nn::{Graph, Var};
use ehna_walks::HistoricalNeighborhood;
use std::collections::BTreeMap;

/// A node-level aggregation strategy: batched historical neighborhoods
/// in, one aggregated embedding row per target out.
///
/// Implementations must route every unit through the model's *shared*
/// tail (`finish_from_unit_reps`) so batch-norm statistics, walk-level
/// attention and the readout stay identical across aggregators — the
/// margin loss must not be able to discriminate targets by pathway.
pub trait Aggregator {
    /// Which [`AggregatorKind`] this strategy implements — the
    /// dispatch, checkpoint and CLI identity of the aggregator.
    fn kind(&self) -> AggregatorKind;

    /// Aggregate `hns` into `Z [B, d]` on the tape `g`. `train` selects
    /// batch vs running batch-norm statistics.
    ///
    /// # Panics
    /// If `hns` is empty, or if `model` was built for a different
    /// [`AggregatorKind`] than [`Aggregator::kind`] (its parameter set
    /// would not match).
    fn aggregate(
        &self,
        model: &mut EhnaModel,
        g: &mut Graph,
        hns: &[HistoricalNeighborhood],
        train: bool,
    ) -> Var;
}

/// The paper's Algorithm 1 node stage: Eq. 3 temporal attention scaling
/// each step's embeddings, then a stacked LSTM per length group.
#[derive(Debug, Clone, Copy, Default)]
pub struct LstmAggregator;

impl Aggregator for LstmAggregator {
    fn kind(&self) -> AggregatorKind {
        AggregatorKind::Lstm
    }

    fn aggregate(
        &self,
        model: &mut EhnaModel,
        g: &mut Graph,
        hns: &[HistoricalNeighborhood],
        train: bool,
    ) -> Var {
        assert!(!hns.is_empty(), "empty aggregation batch");
        let target_ids: Vec<u32> = hns.iter().map(|hn| hn.target.0).collect();
        let e_targets = g.gather(&model.store, model.embeddings, &target_ids);
        let units = build_units(model, hns);

        // Group units by sequence length for shared LSTM unrolling:
        // sequences of different lengths cannot share one unrolling. A
        // two-level unit is one walk (1 or ℓ + 1 nodes); an EHNA-SL unit
        // concatenates its target's k walks (k to k(ℓ + 1) nodes).
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (u, (_, w)) in units.iter().enumerate() {
            groups.entry(w.nodes.len()).or_default().push(u);
        }
        let mut unit_row = vec![usize::MAX; units.len()];
        let mut group_outputs: Vec<Var> = Vec::with_capacity(groups.len());
        let mut next_row = 0usize;
        for (&len, members) in &groups {
            let gsize = members.len();
            for (pos, &u) in members.iter().enumerate() {
                unit_row[u] = next_row + pos;
            }
            next_row += gsize;

            // Per-step embedding lookups.
            let mut steps: Vec<Var> = Vec::with_capacity(len);
            for t in 0..len {
                let ids: Vec<u32> = members.iter().map(|&u| units[u].1.nodes[t].0).collect();
                steps.push(g.gather(&model.store, model.embeddings, &ids));
            }

            // Node-level attention (Eq. 3): softmax over walk positions of
            // -(1/S_v) * ||e_x - e_v||^2, then scale each step's embeddings.
            if model.config.attention && len > 1 {
                let grp_targets: Vec<u32> =
                    members.iter().map(|&u| target_ids[units[u].0]).collect();
                let e_grp = g.gather(&model.store, model.embeddings, &grp_targets);
                let mut dist_cols: Vec<Var> = Vec::with_capacity(len);
                for &x_t in &steps {
                    let diff = g.sub(x_t, e_grp);
                    dist_cols.push(g.row_sq_norms(diff));
                }
                let dists = concat_cols_all(g, &dist_cols);
                // Constant -(1/S_v) coefficients.
                let mut coeff = Vec::with_capacity(gsize * len);
                for &u in members {
                    let c = node_time_coefficients(&units[u].1, &model.time_norm);
                    coeff.extend(c.into_iter().map(|x| -x));
                }
                let coeff = g.constant(gsize, len, coeff);
                let logits = g.mul(dists, coeff);
                let alpha = g.softmax_rows(logits);
                for (t, x_t) in steps.iter_mut().enumerate() {
                    let a_t = g.slice_cols(alpha, t, t + 1);
                    *x_t = g.mul_colb(*x_t, a_t);
                }
            }

            let NodeStage::Lstm(node_lstm) = &model.node_stage else {
                panic!("LstmAggregator dispatched on a model built for the attn aggregator")
            };
            group_outputs.push(node_lstm.forward_sequence(g, &model.store, &steps));
        }

        let all_reps =
            if group_outputs.len() == 1 { group_outputs[0] } else { g.concat_rows(&group_outputs) };
        finish_from_unit_reps(model, g, hns, all_reps, &unit_row, e_targets, train)
    }
}

/// Time2Vec + multi-head attention node stage.
///
/// Per unit (walk), the target's projected embedding queries all walk
/// nodes at once:
///
/// * every unit is padded to the batch's longest walk `lmax`; one gather
///   fetches all `units × lmax` node embeddings (padding gathers node 0,
///   whose rows are fully masked out — provably zero gradient);
/// * per-step elapsed times `Δt = (t_ref − t)/span ∈ [0, 1]` run through
///   [`Time2Vec`](ehna_nn::layers::Time2Vec);
/// * keys/values are the factored concatenation `K = x·W_k + t2v(Δt)·W_kt`,
///   `V = x·W_v + t2v(Δt)·W_vt` — but the fused
///   [`temporal_attention`](ehna_nn::Graph::temporal_attention) op never
///   materializes them: the key projections factor through the per-unit
///   query and the value projections through the attention-weighted
///   input sums, so no `[units·lmax, d]` GEMM ever runs. Those factored
///   projections execute as dense per-head `[units, ·]` GEMMs; only the
///   score/softmax/weighted-sum pass touches the ragged walk prefixes,
///   at a handful of streaming dot products per step;
/// * the query is `W_q·e_target` with *no* time term: the query's Δt is
///   identically zero, so its encoding is a constant row already
///   subsumed by `W_q`'s bias;
/// * masked softmax covers each unit's true prefix only; an output
///   projection mixes the concatenated heads.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttnAggregator;

impl Aggregator for AttnAggregator {
    fn kind(&self) -> AggregatorKind {
        AggregatorKind::Attn
    }

    fn aggregate(
        &self,
        model: &mut EhnaModel,
        g: &mut Graph,
        hns: &[HistoricalNeighborhood],
        train: bool,
    ) -> Var {
        assert!(!hns.is_empty(), "empty aggregation batch");
        let heads = model.config.heads;
        let target_ids: Vec<u32> = hns.iter().map(|hn| hn.target.0).collect();
        let e_targets = g.gather(&model.store, model.embeddings, &target_ids);
        let units = build_units(model, hns);
        let n_units = units.len();

        // Pad every unit to the batch's longest walk. Walks always hold
        // at least their start node, so lens[u] >= 1.
        let lmax = units.iter().map(|(_, w)| w.nodes.len()).max().unwrap();
        let mut lens: Vec<u32> = Vec::with_capacity(n_units);
        let mut node_ids: Vec<u32> = Vec::with_capacity(n_units * lmax);
        let mut dts: Vec<f32> = Vec::with_capacity(n_units * lmax);
        let mut unit_targets: Vec<u32> = Vec::with_capacity(n_units);
        for (b, w) in &units {
            lens.push(w.nodes.len() as u32);
            unit_targets.push(target_ids[*b]);
            let t_ref = hns[*b].t_ref;
            for (v, t) in w.steps() {
                node_ids.push(v.0);
                dts.push(model.time_norm.elapsed_unit(t_ref, t) as f32);
            }
            // Padding: node 0 at Δt 0 — masked out of the softmax, so
            // both its embedding row and the time encoding get exactly
            // zero gradient.
            for _ in w.nodes.len()..lmax {
                node_ids.push(0);
                dts.push(0.0);
            }
        }

        let NodeStage::Attn(stage) = &model.node_stage else {
            panic!("AttnAggregator dispatched on a model built for the lstm aggregator")
        };
        // X [U·lmax, d]: all walk-node embeddings in one gather.
        let x = g.gather(&model.store, model.embeddings, &node_ids);
        let dt = g.constant(n_units * lmax, 1, dts);
        let t2v = stage.t2v.forward(g, &model.store, dt);
        // Q [U, d] from the per-unit target embedding (no time term).
        let e_units = g.gather(&model.store, model.embeddings, &unit_targets);
        let q = stage.wq.forward(g, &model.store, e_units);

        // Fused factored attention over the implicit K = x·wk + t2v·kt,
        // V = x·wv + t2v·vt — never materialized at [U·lmax, d] scale.
        let wkv = g.param(&model.store, stage.wk);
        let ktv = g.param(&model.store, stage.kt);
        let wvv = g.param(&model.store, stage.wv);
        let vtv = g.param(&model.store, stage.vt);
        let mixed = g.temporal_attention(q, x, t2v, wkv, ktv, wvv, vtv, heads, &lens);
        let out = stage.wo.forward(g, &model.store, mixed);

        // Units were built in (target, slot) order, so the unit index IS
        // `b * k + j` — the identity row mapping.
        let unit_row: Vec<usize> = (0..n_units).collect();
        finish_from_unit_reps(model, g, hns, out, &unit_row, e_targets, train)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregator_kinds_match_dispatch() {
        assert_eq!(LstmAggregator.kind(), AggregatorKind::Lstm);
        assert_eq!(AttnAggregator.kind(), AggregatorKind::Attn);
        assert_eq!(LstmAggregator.kind().name(), "lstm");
        assert_eq!(AttnAggregator.kind().name(), "attn");
    }

    #[test]
    #[should_panic(expected = "dispatched on a model built for")]
    fn kind_mismatch_panics() {
        use crate::config::EhnaConfig;
        use ehna_tgraph::GraphBuilder;

        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 10, 1.0).unwrap();
        let graph = b.build().unwrap();
        let mut model = EhnaModel::new(&graph, EhnaConfig::tiny()).unwrap();
        let sampler = ehna_walks::NeighborhoodSampler::new(
            &graph,
            model.walk_config(&graph),
            model.config.num_walks,
        );
        let hns =
            sampler.sample_batch(&[(ehna_tgraph::NodeId(0), ehna_tgraph::Timestamp(11))], 1, 7);
        let mut g = Graph::new();
        // Model holds an LSTM node stage; the attention aggregator must
        // refuse to run it.
        AttnAggregator.aggregate(&mut model, &mut g, &hns, true);
    }
}
