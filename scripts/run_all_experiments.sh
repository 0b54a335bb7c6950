#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# experiments, then patch EXPERIMENTS.md with the measured numbers.
#
# Every method trains with the paper's settings (TrainOptions::default() in
# crates/cli/src/method.rs, the `ehna` subcommands' defaults too).
#
# Usage: scripts/run_all_experiments.sh [scale]
#   scale:  tiny (default) | small | medium
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-tiny}"

cargo build --release -p ehna-bench --bins

for bin in table1_stats table8_timing fig4_reconstruction table3_6_linkpred \
           table7_ablation fig5_sensitivity ext_ablations ext_nodeclass; do
    echo "=== $bin (scale=$SCALE) ==="
    "./target/release/$bin" --scale "$SCALE" --seed 42
done

python3 scripts/fill_experiments.py "$SCALE"
echo "done — results in results/, summary in EXPERIMENTS.md"
