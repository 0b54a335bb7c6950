//! Batched aggregation over historical neighborhoods: trait dispatch to
//! the node-level stage (see [`crate::aggregator`]) plus the machinery
//! both aggregators share — unit construction, the single-level early
//! exit, the walk-level attention + LSTM stage, the GraphSAGE-style
//! fallback, and the readout.
//!
//! Batch statistics (BN) are computed over the whole mini-batch, as the
//! paper's mini-batch training does.

use crate::aggregator::{Aggregator, AttnAggregator, LstmAggregator};
use crate::attention::walk_time_coefficient;
use crate::config::AggregatorKind;
use crate::model::EhnaModel;
use ehna_nn::{Graph, Var};
use ehna_tgraph::{NodeId, TemporalGraph, Timestamp};
use ehna_walks::{HistoricalNeighborhood, TemporalWalk};
use rand::Rng;

/// Aggregate a batch of historical neighborhoods into `Z [B, d]`
/// (Algorithm 1 applied to every target in the batch, sharing batch-norm
/// statistics). `train` selects batch vs running BN statistics.
/// Dispatches the node-level stage on `model.config.aggregator`.
pub(crate) fn aggregate_batch(
    model: &mut EhnaModel,
    g: &mut Graph,
    hns: &[HistoricalNeighborhood],
    train: bool,
) -> Var {
    match model.config.aggregator {
        AggregatorKind::Lstm => LstmAggregator.aggregate(model, g, hns, train),
        AggregatorKind::Attn => AttnAggregator.aggregate(model, g, hns, train),
    }
}

/// The `(target index, walk)` units the node-level stage runs over.
/// Two-level: one unit per `(target, walk)`, in `(b, slot)` order — unit
/// `b * num_walks + j` is target `b`'s walk `j`. Single-level (EHNA-SL):
/// one unit per target, all walk nodes flattened into one sequence.
pub(crate) fn build_units(
    model: &EhnaModel,
    hns: &[HistoricalNeighborhood],
) -> Vec<(usize, TemporalWalk)> {
    let mut units: Vec<(usize, TemporalWalk)> = Vec::new();
    if model.config.two_level {
        for (b, hn) in hns.iter().enumerate() {
            debug_assert_eq!(hn.walks.len(), model.config.num_walks);
            for w in &hn.walks {
                units.push((b, w.clone()));
            }
        }
    } else {
        for (b, hn) in hns.iter().enumerate() {
            let mut nodes = Vec::new();
            let mut times = Vec::new();
            for w in &hn.walks {
                nodes.extend_from_slice(&w.nodes);
                times.extend_from_slice(&w.times);
            }
            units.push((b, TemporalWalk { nodes, times }));
        }
    }
    units
}

/// Everything downstream of the node-level stage, shared by both
/// aggregators: BN + ReLU over all unit representations (Algorithm 1
/// line 4's tail), the EHNA-SL early exit, walk-level attention (Eq. 4),
/// the walk LSTM + BN, and the readout. `all_reps` holds one row per
/// unit; `unit_row[b * k + j]` maps target `b`'s slot `j` to its row.
pub(crate) fn finish_from_unit_reps(
    model: &mut EhnaModel,
    g: &mut Graph,
    hns: &[HistoricalNeighborhood],
    all_reps: Var,
    unit_row: &[usize],
    e_targets: Var,
    train: bool,
) -> Var {
    let batch = hns.len();
    let all_reps = if train {
        model.bn_node.forward_train(g, &model.store, all_reps)
    } else {
        model.bn_node.forward_eval(g, &model.store, all_reps)
    };
    let all_reps = g.relu(all_reps);

    if !model.config.two_level {
        // EHNA-SL: the single flattened representation *is* H.
        let h = reassemble_rows(g, all_reps, unit_row, batch, 1, 0);
        return readout(model, g, h, e_targets);
    }

    // ------------------------------------------------- walk-level stage
    let k = model.config.num_walks;
    let mut slot_reps: Vec<Var> =
        (0..k).map(|j| reassemble_rows(g, all_reps, unit_row, batch, k, j)).collect();

    if model.config.attention && k > 1 {
        // Walk-level attention (Eq. 4): softmax over the k walks of
        // -gamma_r * ||e_x - h_r||^2.
        let mut dist_cols: Vec<Var> = Vec::with_capacity(k);
        for &h_j in &slot_reps {
            let diff = g.sub(h_j, e_targets);
            dist_cols.push(g.row_sq_norms(diff));
        }
        let dists = concat_cols_all(g, &dist_cols);
        let mut gamma = Vec::with_capacity(batch * k);
        for hn in hns {
            for w in &hn.walks {
                gamma.push(-walk_time_coefficient(w, &model.time_norm));
            }
        }
        let gamma = g.constant(batch, k, gamma);
        let logits = g.mul(dists, gamma);
        let beta = g.softmax_rows(logits);
        for (j, h_j) in slot_reps.iter_mut().enumerate() {
            let b_j = g.slice_cols(beta, j, j + 1);
            *h_j = g.mul_colb(*h_j, b_j);
        }
    }

    let h = model.walk_lstm.forward_sequence(g, &model.store, &slot_reps);
    let h = if train {
        model.bn_walk.forward_train(g, &model.store, h)
    } else {
        model.bn_walk.forward_eval(g, &model.store, h)
    };
    readout(model, g, h, e_targets)
}

/// GraphSAGE-style fallback aggregation (paper §IV-D) for nodes whose
/// historical neighborhood cannot be identified (negative samples, cold
/// nodes): mean-pool embeddings of randomly sampled one- and two-hop
/// neighbors (restricted to interactions before each node's reference
/// time when any exist), then the shared readout.
pub(crate) fn aggregate_fallback<R: Rng + ?Sized>(
    model: &EhnaModel,
    g: &mut Graph,
    graph: &TemporalGraph,
    nodes: &[(NodeId, Timestamp)],
    rng: &mut R,
) -> Var {
    assert!(!nodes.is_empty(), "empty fallback batch");
    let fan = model.config.fallback_samples;
    let target_ids: Vec<u32> = nodes.iter().map(|(v, _)| v.0).collect();
    let e_targets = g.gather(&model.store, model.embeddings, &target_ids);

    let mut pooled: Vec<Var> = Vec::with_capacity(nodes.len());
    for &(v, t) in nodes {
        let mut ids: Vec<u32> = Vec::with_capacity(2 * fan);
        let hist = graph.neighbors_before(v, t);
        let pool = if hist.is_empty() { graph.neighbors(v) } else { hist };
        if pool.is_empty() {
            // Isolated node: pool over itself.
            ids.push(v.0);
        } else {
            for _ in 0..fan {
                let one = pool[rng.gen_range(0..pool.len())].node;
                ids.push(one.0);
                // One two-hop extension per one-hop sample.
                let hist2 = graph.neighbors_before(one, t);
                let pool2 = if hist2.is_empty() { graph.neighbors(one) } else { hist2 };
                if !pool2.is_empty() {
                    ids.push(pool2[rng.gen_range(0..pool2.len())].node.0);
                }
            }
        }
        let nbrs = g.gather(&model.store, model.embeddings, &ids);
        pooled.push(g.mean_cols(nbrs));
    }
    let h = if pooled.len() == 1 { pooled[0] } else { g.concat_rows(&pooled) };
    readout(model, g, h, e_targets)
}

/// `z = l2_normalize(W · [H || e])` — Algorithm 1 lines 7–8.
pub(crate) fn readout(model: &EhnaModel, g: &mut Graph, h: Var, e_targets: Var) -> Var {
    let cat = g.concat_cols(h, e_targets);
    let z = model.readout.forward(g, &model.store, cat);
    g.l2_normalize_rows(z, 1e-6)
}

/// Stack rows `unit_row[b * k + j]` of `reps` for `b in 0..batch` into a
/// `[batch, d]` matrix (slot `j` of every target).
pub(crate) fn reassemble_rows(
    g: &mut Graph,
    reps: Var,
    unit_row: &[usize],
    batch: usize,
    k: usize,
    j: usize,
) -> Var {
    let rows: Vec<u32> = (0..batch).map(|b| unit_row[b * k + j] as u32).collect();
    g.select_rows(reps, &rows)
}

/// Concatenate single-column vars into a `[m, n]` matrix.
pub(crate) fn concat_cols_all(g: &mut Graph, cols: &[Var]) -> Var {
    let mut acc = cols[0];
    for &c in &cols[1..] {
        acc = g.concat_cols(acc, c);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EhnaConfig;
    use ehna_tgraph::GraphBuilder;
    use ehna_walks::NeighborhoodSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for &(x, y, t) in
            &[(0u32, 1u32, 1i64), (1, 2, 2), (2, 3, 3), (0, 2, 4), (1, 3, 5), (3, 4, 6), (0, 4, 7)]
        {
            b.add_edge(x, y, t, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    fn sample_hns(
        model: &EhnaModel,
        graph: &TemporalGraph,
        targets: &[(u32, i64)],
    ) -> Vec<HistoricalNeighborhood> {
        let sampler =
            NeighborhoodSampler::new(graph, model.walk_config(graph), model.config.num_walks);
        let t: Vec<(NodeId, Timestamp)> =
            targets.iter().map(|&(v, t)| (NodeId(v), Timestamp(t))).collect();
        sampler.sample_batch(&t, 1, 7)
    }

    fn check_unit_rows(z: &[f32], rows: usize, d: usize) {
        for r in 0..rows {
            let norm: f32 = z[r * d..(r + 1) * d].iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "row {r} norm {norm}");
        }
    }

    #[test]
    fn aggregation_outputs_unit_rows() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, EhnaConfig::tiny()).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6), (4, 8), (1, 3)]);
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        assert_eq!((z.rows(), z.cols()), (4, 16));
        check_unit_rows(g.value(z), 4, 16);
    }

    #[test]
    fn gradients_reach_all_parameter_groups() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, EhnaConfig::tiny()).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6), (4, 8)]);
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        let sq = g.square(z);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads(&mut model.store);
        let mut touched = 0;
        for id in model.store.ids().collect::<Vec<_>>() {
            if model.store.grad(id).iter().any(|&x| x != 0.0) {
                touched += 1;
            }
        }
        // Everything except possibly some bias blocks should be touched.
        assert!(
            touched >= model.store.len() - 2,
            "only {touched}/{} params touched",
            model.store.len()
        );
    }

    #[test]
    fn no_history_targets_are_handled() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, EhnaConfig::tiny()).unwrap();
        // t=1 means node 0 has zero history: all walks are singletons.
        let hns = sample_hns(&model, &graph, &[(0, 1), (1, 1)]);
        assert!(hns.iter().all(|h| !h.has_history()));
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        assert_eq!(z.rows(), 2);
        assert!(g.value(z).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_level_variant_runs() {
        let graph = toy();
        let cfg = EhnaConfig { two_level: false, attention: false, ..EhnaConfig::tiny() };
        let mut model = EhnaModel::new(&graph, cfg).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (4, 8)]);
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        assert_eq!((z.rows(), z.cols()), (2, 16));
        check_unit_rows(g.value(z), 2, 16);
    }

    #[test]
    fn attention_changes_the_output() {
        let graph = toy();
        let hns_fixture = |cfg: EhnaConfig| {
            let mut model = EhnaModel::new(&graph, cfg).unwrap();
            let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6)]);
            let mut g = Graph::new();
            let z = aggregate_batch(&mut model, &mut g, &hns, true);
            g.value(z).to_vec()
        };
        let with_attn = hns_fixture(EhnaConfig::tiny());
        let without = hns_fixture(EhnaConfig { attention: false, ..EhnaConfig::tiny() });
        assert_ne!(with_attn, without, "attention had no effect");
    }

    fn tiny_attn() -> EhnaConfig {
        EhnaConfig { aggregator: AggregatorKind::Attn, ..EhnaConfig::tiny() }
    }

    #[test]
    fn attn_aggregation_outputs_unit_rows() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, tiny_attn()).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6), (4, 8), (1, 3)]);
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        assert_eq!((z.rows(), z.cols()), (4, 16));
        check_unit_rows(g.value(z), 4, 16);
    }

    #[test]
    fn attn_gradients_reach_all_parameter_groups() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, tiny_attn()).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6), (4, 8)]);
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        let sq = g.square(z);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.write_grads(&mut model.store);
        let mut touched = 0;
        for id in model.store.ids().collect::<Vec<_>>() {
            if model.store.grad(id).iter().any(|&x| x != 0.0) {
                touched += 1;
            }
        }
        assert!(
            touched >= model.store.len() - 2,
            "only {touched}/{} params touched",
            model.store.len()
        );
    }

    #[test]
    fn attn_no_history_targets_are_handled() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, tiny_attn()).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 1), (1, 1)]);
        assert!(hns.iter().all(|h| !h.has_history()));
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        assert_eq!(z.rows(), 2);
        assert!(g.value(z).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attn_single_level_variant_runs() {
        let graph = toy();
        let cfg = EhnaConfig { two_level: false, ..tiny_attn() };
        let mut model = EhnaModel::new(&graph, cfg).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (4, 8)]);
        let mut g = Graph::new();
        let z = aggregate_batch(&mut model, &mut g, &hns, true);
        assert_eq!((z.rows(), z.cols()), (2, 16));
        check_unit_rows(g.value(z), 2, 16);
    }

    #[test]
    fn attn_eval_mode_is_deterministic_and_padding_inert() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, tiny_attn()).unwrap();
        let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6), (4, 8), (1, 3)]);
        {
            let mut g = Graph::new();
            aggregate_batch(&mut model, &mut g, &hns, true);
        }
        // Batched alone, lmax is the target's own longest walk; batched
        // jointly, its units are padded to the batch-wide maximum. The
        // rows must agree anyway — padding is masked out of the softmax.
        let solo = {
            let mut g = Graph::new();
            let z = aggregate_batch(&mut model, &mut g, &hns[..1], false);
            g.value(z).to_vec()
        };
        let joint = {
            let mut g = Graph::new();
            let z = aggregate_batch(&mut model, &mut g, &hns, false);
            g.value(z)[..16].to_vec()
        };
        for (a, b) in solo.iter().zip(&joint) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn lstm_and_attn_produce_different_embeddings() {
        let graph = toy();
        let run = |cfg: EhnaConfig| {
            let mut model = EhnaModel::new(&graph, cfg).unwrap();
            let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6)]);
            let mut g = Graph::new();
            let z = aggregate_batch(&mut model, &mut g, &hns, true);
            g.value(z).to_vec()
        };
        assert_ne!(run(EhnaConfig::tiny()), run(tiny_attn()));
    }

    #[test]
    fn fallback_aggregation_shapes_and_isolated_nodes() {
        let mut b = GraphBuilder::with_num_nodes(6);
        b.add_edge(0, 1, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2, 1.0).unwrap();
        let graph = b.build().unwrap();
        let model = EhnaModel::new(&graph, EhnaConfig::tiny()).unwrap();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(3);
        // Node 5 is isolated; node 0 has history only at t>1.
        let z = aggregate_fallback(
            &model,
            &mut g,
            &graph,
            &[(NodeId(5), Timestamp(10)), (NodeId(0), Timestamp(1)), (NodeId(2), Timestamp(9))],
            &mut rng,
        );
        assert_eq!((z.rows(), z.cols()), (3, 16));
        check_unit_rows(g.value(z), 3, 16);
    }

    #[test]
    fn eval_mode_is_deterministic_across_batches() {
        let graph = toy();
        let mut model = EhnaModel::new(&graph, EhnaConfig::tiny()).unwrap();
        // Seed BN running stats with one training pass.
        let hns = sample_hns(&model, &graph, &[(0, 7), (3, 6), (4, 8), (1, 3)]);
        {
            let mut g = Graph::new();
            aggregate_batch(&mut model, &mut g, &hns, true);
        }
        // The same target must embed identically whether batched alone or
        // with others (running stats, no batch coupling).
        let solo = {
            let mut g = Graph::new();
            let z = aggregate_batch(&mut model, &mut g, &hns[..1], false);
            g.value(z).to_vec()
        };
        let joint = {
            let mut g = Graph::new();
            let z = aggregate_batch(&mut model, &mut g, &hns, false);
            g.value(z)[..16].to_vec()
        };
        for (a, b) in solo.iter().zip(&joint) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }
}
