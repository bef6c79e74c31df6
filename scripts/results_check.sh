#!/usr/bin/env bash
# `results/` holds the outputs EXPERIMENTS.md quotes. The figure harnesses
# below print no timings and seed every generator, so their output is a
# pure function of the code: rerun each with the flags `results/README.md`
# gives and fail on any byte that differs from its file. A change that
# moves a figure regenerates the file in the same commit (and restates
# EXPERIMENTS.md), or this fails.
#
# usage: scripts/results_check.sh   (after `cargo build --release`;
#        ≈ 95 s on one core, ≈ 60 s of it in fig7)
set -euo pipefail
cd "$(dirname "$0")/.."

bins=target/release
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed=0
check() {
    local file=$1
    shift
    "$bins/$@" >"$out/$file" 2>&1
    if ! diff -u "results/$file" "$out/$file" >"$out/$file.diff"; then
        echo "results_check: results/$file differs from \`$*\`:" >&2
        head -40 "$out/$file.diff" >&2
        failed=1
    fi
}

check fig1.txt fig1_criterion
check fig2.txt fig2_distortion
check fig5.txt fig5_hash_curves
check fig7.txt fig7_io_per_k --images 2000
check fig8.txt fig8_io_vs_buffer --images 2000
check sec42.txt sec42_local_opt --images 400
check fig10.txt fig10_selectivity --shapes 3000
check index_io.txt index_io --images 500
check ablation_alpha_beta.txt ablation_alpha_beta --images 200

if [ "$failed" != 0 ]; then
    echo "results_check: FAIL — regenerate the file(s) above with the same command and restate EXPERIMENTS.md" >&2
    exit 1
fi
echo "results_check: OK (9 figure outputs)"
