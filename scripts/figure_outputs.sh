#!/usr/bin/env bash
# Regenerate the paper's deterministic figure outputs: fig3..fig8 and the
# five ablation benches, one file per bench in <out-dir>/<bench>.txt.
#
#   scripts/figure_outputs.sh <build-dir> <out-dir>
#
# Each bench is seeded, so its table is the same on every run.  Each one
# also ends with a metrics dump whose latency histograms (every line
# containing `_seconds`) are timings; those lines are dropped so that two
# builds of the same behaviour give byte-identical files:
#
#   scripts/figure_outputs.sh build-old old && scripts/figure_outputs.sh build new
#   diff -r old new
#
# fig9_running_time is left out: its output is timings.  Exits non-zero
# if a bench is missing or fails.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <build-dir> <out-dir>" >&2
    exit 2
fi
build_dir=$1
out_dir=$2

benches=(
    fig3_cost_average
    fig4_cost_weighted
    fig5_collusion_average
    fig6_collusion_weighted
    fig7_detection_rate
    fig8_distribution_distance
    ablation_window_size
    ablation_distance_kind
    ablation_corrections
    ablation_partial_feedback
    ablation_runs_test
)

mkdir -p "$out_dir"
for bench in "${benches[@]}"; do
    binary=$build_dir/bench/$bench
    if [[ ! -x $binary ]]; then
        echo "$0: $binary not found; build the bench targets first" >&2
        exit 1
    fi
    echo "$bench" >&2
    "$binary" | { grep -v -e '_seconds' || true; } >"$out_dir/$bench.txt"
done
