#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full workspace test suite.
# Run from the repo root before pushing; everything must exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, rustdoc warnings are errors)"
# Catches doc links left dangling by renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo bench --no-run (benches must compile)"
cargo bench --workspace --no-run

echo "== e2ebench compiles against the workspace"
# The end-to-end benchmark is a separate package that links the
# workspace crates, so a public-API change that breaks it would otherwise
# surface only when the benchmark runs. An offline cargo run rewrites
# e2ebench/Cargo.lock, so the committed lock file is put back afterwards.
e2e_lock="$(mktemp)"
cp e2ebench/Cargo.lock "$e2e_lock"
e2e_status=0
cargo check --offline -q --manifest-path e2ebench/Cargo.toml \
    --target-dir target/e2ebench-check || e2e_status=$?
cp "$e2e_lock" e2ebench/Cargo.lock
rm -f "$e2e_lock"
[ "$e2e_status" -eq 0 ]

echo "== cargo test (workspace)"
cargo test --workspace -q

echo "== fault-injection suite (wall-clock bounded)"
# The hostile-client tests double as a regression gate for server
# shutdown: if a hang is ever reintroduced, the hard timeout turns a
# wedged CI run into a fast failure. Build first so the timeout budget
# is spent on the tests, not the compiler.
cargo test --test fault_injection --no-run -q
timeout --kill-after=10 120 \
    cargo test --test fault_injection -q

echo "== checkpoint/resume gates (wall-clock bounded)"
# Resume determinism (train 2N uninterrupted == train N + checkpoint +
# reload + train N, bit-for-bit) and crash-recovery (kill at any point
# of the atomic-write protocol leaves a loadable checkpoint; corrupted
# bytes are always rejected). Hard timeout so a deadlocked resume or a
# proptest blow-up fails fast instead of wedging CI.
cargo test -p ehna-core --test resume_determinism --no-run -q
cargo test -p ehna-core --test checkpoint_robustness --no-run -q
timeout --kill-after=10 180 \
    cargo test -p ehna-core --test resume_determinism -q
timeout --kill-after=10 180 \
    cargo test -p ehna-core --test checkpoint_robustness -q

echo "== streaming gates (wall-clock bounded)"
# WAL robustness (proptest round-trip, every-byte truncation recovery,
# torn-tail tolerance, mid-file corruption fail-stop), incremental-vs-
# full-rebuild equivalence (frozen model < 1e-4 and bit-identical;
# fine-tuned drift under the documented bound), and the CLI end-to-end
# path (train a prefix, serve it, ingest + stream the suffix, hot-swap
# per batch under client load). Hard timeouts so a wedged tail-poll or refresh loop fails fast.
cargo test -p ehna-stream --test wal_robustness --no-run -q
cargo test --test refresh_equivalence --no-run -q
cargo test -p ehna-cli --test streaming --no-run -q
timeout --kill-after=10 120 \
    cargo test -p ehna-stream --test wal_robustness -q
timeout --kill-after=10 180 \
    cargo test --test refresh_equivalence -q
timeout --kill-after=10 120 \
    cargo test -p ehna-cli --test streaming -q

echo "== inference contract (wall-clock bounded)"
# One node-keyed inference function behind every entry point, for both
# aggregators: Trainer::embeddings equals refresh_rows over all nodes and
# the StreamProcessor baseline bit for bit; embedding between epochs
# leaves the next epoch's losses unchanged (inference never draws from
# the training RNG); embeddings_at rows ignore batch size, thread count
# and the other targets of the call (inference_contract). Hard timeout
# like the other gates.
cargo test --test inference_contract --no-run -q
timeout --kill-after=10 120 \
    cargo test --test inference_contract -q

echo "== router gates (wall-clock bounded)"
# The cluster tier's load-bearing guarantees: EHNP v2 frame codec
# robustness (proptest round-trip, every-byte truncation, single-byte
# corruption, oversized lengths capped before allocation, arbitrary bytes
# on a live shard socket answered with whole frames or a close), the
# equivalence gate (a router over N ∈ {1,2,4} shards answers knn AND
# batch byte-identically to a standalone server — ids, ordering, tie
# breaks, error strings, `cached` flags with the answer cache on and
# off, down to empty and single-node tables, plus a tight-limits battery
# (max_k 3, max_pairs 2, max_batch 2 on both sides) covering every limit
# and malformed-field rejection and the rejected/cache/per-op counters
# of both stats documents; shard-local IVF holds
# recall@10 ≥ 0.95 against the brute-force oracle), and fault injection
# (replica killed mid-load under 16 clients, tar-pit replica
# circuit-broken without delaying a restarted peer's probe recovery,
# rolling reload under load with cache invalidation — zero malformed
# client responses throughout; EHNP keep-alive and frame-deadline timing
# and a 1,000-connection flood shed past the admission cap). Hard
# timeouts so a wedged scatter or probe loop fails fast instead of
# hanging CI.
cargo test --test proto_robustness --no-run -q
cargo test --test router_equivalence --no-run -q
cargo test --test cluster_faults --no-run -q
timeout --kill-after=10 120 \
    cargo test --test proto_robustness -q
timeout --kill-after=10 180 \
    cargo test --test router_equivalence -q
timeout --kill-after=10 180 \
    cargo test --test cluster_faults -q

echo "== quant gates (wall-clock bounded)"
# The EHNQ artifact family's load-bearing guarantees: format robustness
# (proptest round-trip per format within documented error bounds,
# every-byte truncation and single-byte corruption rejected on heap
# open, mmap open defers only the code-section audit, 64-byte section
# alignment, mmap-vs-heap scorers bit-identical), serving quality
# (recall@10 >= 0.95 for every quantized format against the f32 oracle,
# int8/PQ >= 4x code-byte compression, tie-heavy brute-vs-full-probe-IVF
# bit identity under the pinned f64 distance contract, heap/mmap answer
# identity under concurrent reload churn, canonical node-key
# resolution), the lane-parallel block scorers bit-identical to the
# per-row scorers for every format, ragged list length, dimension and
# PQ sub-quantizer count (lane_scoring), and the quantize/serve/shard
# CLI path end to end. The router equivalence gate above already covers
# quantized shards being byte-identical to a quantized standalone
# server. Hard timeouts so a wedged churn thread fails fast.
cargo test -p ehna-tgraph --test quant_robustness --no-run -q
cargo test -p ehna-tgraph --test lane_scoring --no-run -q
cargo test -p ehna-serve --test quant_serving --no-run -q
cargo test -p ehna-cli quantize --no-run -q
timeout --kill-after=10 180 \
    cargo test -p ehna-tgraph --test quant_robustness -q
timeout --kill-after=10 120 \
    cargo test -p ehna-tgraph --test lane_scoring -q
timeout --kill-after=10 180 \
    cargo test -p ehna-serve --test quant_serving -q
timeout --kill-after=10 120 \
    cargo test -p ehna-cli quantize -q

echo "== format gates (wall-clock bounded)"
# The binary-format layer's contracts: one seeded artifact per format
# (EHNQ x4, ParamStore, Adam, EHNC v3, EHNL, EHNM, EHNP preamble
# and every frame kind) hashes to committed constants, so no encoder
# change moves a byte on disk or on the wire unnoticed (format_bytes),
# and one sweep through every format's public loader refuses each strict
# truncation and each single-byte flip (format_corruption). Hard
# timeouts like the other gates.
cargo test --test format_bytes --no-run -q
cargo test --test format_corruption --no-run -q
timeout --kill-after=10 120 \
    cargo test --test format_bytes -q
timeout --kill-after=10 120 \
    cargo test --test format_corruption -q

echo "== walk gates (wall-clock bounded)"
# The walk samplers' contract: TemporalWalker and Node2VecWalker walks
# match an in-test per-candidate form of Eq. 2 x Eq. 1 (kernel and
# adjacency test evaluated for every candidate) bit for bit, with the
# same number of RNG draws, over multigraphs with repeated timestamps,
# p, q in {0.25, 1, 4}, every decay kernel, both walk orders and a tight
# and loose candidate cap (walk_equivalence). Hard timeout like the
# other gates.
cargo test --test walk_equivalence --no-run -q
timeout --kill-after=10 120 \
    cargo test --test walk_equivalence -q

echo "== kernel gates (wall-clock bounded)"
# The fused-kernel layer's contracts: blocked GEMMs match a naive oracle
# on randomized shapes with NaN/Inf propagation (the bug class that
# motivated the rewrite — zero-skip shortcuts silently masking NaN), and
# training is bit-identical at 1 vs 4 kernel threads, end-to-end through
# sampling, backprop, and optimizer updates. The kernels microbench is
# built (--no-run) so perf regressions stay one command away. The fused
# stacked-LSTM op matches its per-step composition bit for bit (value and
# every gradient) across layers, lengths, batch sizes and thread counts
# (lstm_sequence). Hard timeouts so a deadlocked thread-scope fails fast.
cargo bench -p ehna-bench --bench kernels --no-run
cargo test -p ehna-nn --test kernel_proptests --no-run -q
cargo test -p ehna-core --test threaded_determinism --no-run -q
cargo test --test lstm_sequence --no-run -q
timeout --kill-after=10 120 \
    cargo test -p ehna-nn --test kernel_proptests -q
timeout --kill-after=10 180 \
    cargo test -p ehna-core --test threaded_determinism -q
timeout --kill-after=10 120 \
    cargo test --test lstm_sequence -q

echo "== aggregator gates (wall-clock bounded)"
# The pluggable node-stage subsystem's contracts: the LSTM aggregator is
# pinned bit-for-bit to the pre-trait loss trace (aggregator_golden), the
# fused temporal-attention op matches a naive f64 oracle (K and V
# materialized, hand-derived backward) forward and backward, passes
# gradcheck with padding rows provably at zero gradient, and keeps NaN
# and padding junk out of other units (attention_ops), and an attn
# train -> export -> serve -> query journey runs the real CLI end to
# end. Hard timeouts so a wedged kernel
# thread-scope fails fast. (threaded_determinism above already covers
# both aggregators' 1-vs-4-thread bit-identity.)
cargo test --test aggregator_golden --no-run -q
cargo test -p ehna-nn --test attention_ops --no-run -q
cargo test -p ehna-cli --test serve_end_to_end --no-run -q
timeout --kill-after=10 180 \
    cargo test --test aggregator_golden -q
timeout --kill-after=10 120 \
    cargo test -p ehna-nn --test attention_ops -q
timeout --kill-after=10 180 \
    cargo test -p ehna-cli --test serve_end_to_end train_attn_aggregator_round_trip -q

echo "== experiment records (wall-clock bounded)"
# The committed tables must be what the code writes: regenerate the
# seed-42 digg and tmall link-prediction tables (Tables III and V, every
# method on the paper's settings) and diff them byte for byte against
# the committed TSVs. tmall is bipartite, so its table also pins the
# Eq. 7 choice (bidirectional iff bipartite). A change that moves any
# method's training or the evaluation fails here until
# scripts/run_all_experiments.sh regenerates the records. Hard timeouts
# like the other gates.
cargo build --release -p ehna-bench --bin table3_6_linkpred -q
records_dir="$(mktemp -d)"
for dataset in digg tmall; do
    timeout --kill-after=10 300 \
        ./target/release/table3_6_linkpred --scale tiny --dataset "$dataset" --seed 42 \
        --out "$records_dir" > /dev/null
    diff "$records_dir/table3_6_${dataset}_tiny.tsv" "results/table3_6_${dataset}_tiny.tsv"
done
rm -rf "$records_dir"

echo "ci: all green"
