#!/usr/bin/env bash
# The one command.
#
#   benchmark/run.sh                      every workload untraced then traced with
#                                         --seed ${SEED:-1}; writes benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run (what BENCHMARK.json's command reaches);
#                                         the last line of stdout is the result object
#   benchmark/run.sh noise --passes 5     same-code noise table -> benchmark/NOISE.md
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh pairs --parent-bin P  alternating pairs of two geosir binaries (P and this build)
#   benchmark/run.sh all --smoke          ~3 s per run, correctness checks on
#
# Builds the shipped binary (`cargo build --release --offline` at the root) and this
# package into one target directory, so `geosir` and `geosir-benchmark` sit side by
# side. Fails, printing no result, where the repo's sources are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "benchmark/run.sh: the repo's sources are not here ($root): nothing to build or measure" >&2
  exit 3
fi

target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export GEOSIR_BENCH_DIR="$here"
export GEOSIR_BIN="$target/release/geosir"
bench="$target/release/geosir-benchmark"

case "${1:-}" in
  "") exec "$bench" all --seed "${SEED:-1}" ;;
  --*) exec "$bench" run "$@" ;;
  *) exec "$bench" "$@" ;;
esac
