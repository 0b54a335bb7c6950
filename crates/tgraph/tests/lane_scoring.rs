//! Bit-identity gate for the lane-parallel block scorers: scoring rows
//! from [`LaneBlocks`] must return exactly the bits the per-row scorers
//! return (`QuantScorer::dist` for every EHNQ format, `sq_dist_f64` for
//! dense f32 rows), for ragged list lengths around the block width, odd
//! and even dimensions, several PQ sub-quantizer counts, and queries with
//! large-magnitude and negative entries.
//!
//! CI runs this suite as part of the quant gates (scripts/ci.sh).

use ehna_tgraph::quant::{sq_dist_f64, LaneBlocks, LANES};
use ehna_tgraph::{NodeEmbeddings, NodeId, QuantFormat, QuantSpec, QuantizedEmbeddings};
use proptest::prelude::*;

/// List lengths: empty, one row, one short of a block, a full block, one
/// past it, and two blocks plus one.
const LENS: [usize; 6] = [0, 1, 15, 16, 17, 33];
const DIMS: [usize; 5] = [1, 3, 8, 13, 64];
const ROWS: usize = 40;

/// PQ sub-quantizer counts that divide `dim`, smallest and largest first.
fn pq_ms(dim: usize) -> Vec<usize> {
    (1..=dim).filter(|m| dim % m == 0 && (*m <= 4 || *m == dim || *m == 16)).collect()
}

/// Check every real lane of every block against the per-row distance.
fn check_blocks(
    blocks: &LaneBlocks,
    ids: &[u32],
    label: &str,
    mut block: impl FnMut(usize, &mut [f64; LANES]),
    row: impl Fn(u32) -> f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(blocks.len(), ids.len());
    prop_assert_eq!(blocks.num_blocks(), ids.len().div_ceil(LANES));
    let mut out = [0.0f64; LANES];
    for (b, chunk) in ids.chunks(LANES).enumerate() {
        block(b, &mut out);
        for (l, (&id, &got)) in chunk.iter().zip(&out).enumerate() {
            let want = row(id);
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{}: block {} lane {} (row {}) scored {:e}, per-row {:e}",
                label,
                b,
                l,
                id,
                got,
                want
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn block_scores_are_bit_identical_to_per_row(
        len_i in 0usize..LENS.len(),
        dim_i in 0usize..DIMS.len(),
        values in proptest::collection::vec(-64.0f32..64.0, ROWS * 64..ROWS * 64 + 1),
        picks in proptest::collection::vec(0u32..ROWS as u32, 33..34),
        raw_query in proptest::collection::vec(-1.0f32..1.0, 64..65),
        exponent in 0i32..100,
    ) {
        let (len, dim) = (LENS[len_i], DIMS[dim_i]);
        let emb = NodeEmbeddings::from_vec(dim, values[..ROWS * dim].to_vec());
        // Repeated ids are allowed: a block may hold the same row twice.
        let ids = &picks[..len];
        // Every other entry scaled up to 2^exponent: mixed signs, small
        // and huge magnitudes in one query.
        let query: Vec<f32> = raw_query[..dim]
            .iter()
            .enumerate()
            .map(|(d, &x)| if d % 2 == 0 { x * 2f32.powi(exponent) } else { x })
            .collect();

        let dense = LaneBlocks::from_f32_rows(dim, ids.iter().map(|&v| emb.get(NodeId(v))));
        check_blocks(
            &dense,
            ids,
            "dense",
            |b, out| dense.sq_dist_f32(&query, b, out),
            |v| sq_dist_f64(&query, emb.get(NodeId(v))),
        )?;

        let mut specs: Vec<QuantSpec> = [QuantFormat::F32, QuantFormat::F16, QuantFormat::Int8]
            .into_iter()
            .map(QuantSpec::new)
            .collect();
        for m in pq_ms(dim) {
            specs.push(QuantSpec { pq_m: m, pq_iters: 2, ..QuantSpec::new(QuantFormat::Pq) });
        }
        for spec in specs {
            let q = QuantizedEmbeddings::encode(&emb, &spec).unwrap();
            let blocks = q.lane_blocks(ids);
            let scorer = q.scorer(&query);
            let label = format!("{} dim {dim} pq_m {}", spec.format.label(), q.pq_m());
            check_blocks(
                &blocks,
                ids,
                &label,
                |b, out| scorer.dist_block(&blocks, b, out),
                |v| scorer.dist(v as usize),
            )?;
        }
    }
}

#[test]
fn blocks_of_another_format_are_rejected() {
    let emb = NodeEmbeddings::from_vec(2, vec![1.0, 2.0, 3.0, 4.0]);
    let int8 = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::Int8)).unwrap();
    let f16 = QuantizedEmbeddings::encode(&emb, &QuantSpec::new(QuantFormat::F16)).unwrap();
    let blocks = f16.lane_blocks(&[0, 1]);
    let scorer = int8.scorer(&[0.0, 0.0]);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scorer.dist_block(&blocks, 0, &mut [0.0; LANES]);
    }));
    assert!(caught.is_err(), "int8 scorer accepted f16 blocks");
}
