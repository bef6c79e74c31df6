#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# Every crate's tests: the root manifest's `default-members` puts the root
# package and every `crates/*` crate under a bare `cargo test`, so the
# suites below that tier-1 once named one by one (hashing / approx,
# alloc_approx, heap_dynamic, seeded_exact, the grid_ and quantized_
# filters, router_pipeline / cluster_integration / cluster_obs,
# wire_proptest, geosir-obs, geosir-storage) all run here, plain.
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# The two examples whose asserts drive the façade and the §5 query
# engine end to end (`cargo test` only compiles examples).
cargo run -q --release --example quickstart
cargo run -q --release --example topological_queries
# `pub` means somebody else uses it: a pub fn/const/static whose name no
# other .rs file mentions loses its `pub` — and the clippy line above
# then says whether it lives (dead_code stops at `pub`).
bash scripts/pub_census.sh
# A knob that nobody turns is a constant: every public field of the six
# serving config structs must be set by something outside the file that
# defines it (the CLI, a test or benchmark/); the table it prints says by
# whom, and which `geosir serve` / `geosir cluster` flags are passed.
bash scripts/knob_census.sh
# Product and test lines per crate, counted one way every time (product =
# outside `#[cfg(test)] mod tests`); fails when a file of the dynamic base
# passes 1 000 lines.
bash scripts/lines.sh
# The libraries report, the server records: only the serving crate and
# the root package (the shell's `metrics` command) may depend on
# geosir-obs. Its direct dependents, one per line, must be those two.
dependents=$(cargo tree --offline -e normal -i geosir-obs --depth 1 --prefix none \
    | awk 'NR > 1 && NF { print $1 }' | sort -u | tr '\n' ' ')
if [ "$dependents" != "geosir geosir-serve " ]; then
    echo "tier1: FAIL — geosir-obs has dependents beyond geosir-serve and geosir: $dependents" >&2
    exit 1
fi

# The canonical benchmark's contract: `benchmark/` is a workspace of its
# own compiled against these crates' public API and the CLI's
# `BaseTemplate`, so build it and run its unit tests here (one of them
# fails when `src/server_cmd.rs` / `src/cluster_cmd.rs` drift from the
# twin's copy). Shares this workspace's target directory, as
# `benchmark/run.sh` does; CI's `benchmark` job adds the smoke run.
(cd benchmark && CARGO_TARGET_DIR="$PWD/../target" cargo test -q --offline)

# The figure outputs EXPERIMENTS.md quotes: rerun the nine deterministic
# harnesses (built by the release build above) and diff each against its
# file under results/.
bash scripts/results_check.sh

# Durability hooks: crash-recovery harness (abort-at-failpoint children)
# plus the full server suite with the fault hooks compiled in. Budget:
# the crash tests must stay under 30 s wall — they are child-process
# spawns, not sleeps — so a blowup here is a regression by itself. The
# feature build is compiled first, so the budget times the tests alone.
cargo test -q -p geosir-serve --features failpoints --no-run
start=$(date +%s)
cargo test -q -p geosir-serve --features failpoints
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt 30 ]; then
    echo "tier1: FAIL — failpoints suite took ${elapsed}s (budget 30s)" >&2
    exit 1
fi
cargo clippy -p geosir-serve --features failpoints --all-targets -- -D warnings

# Observability smoke: scrape /metrics + /debug/last_queries (a plain
# query's record on the node, a routed one's on the router) + the
# health plane (/healthz, /readyz with component verdicts, the
# /debug/journal) from a live durable server, then the federated
# endpoint of a 2-shard cluster (merged + shard-labeled series,
# /debug/cluster topology, federated readiness with per-shard
# attribution). Fast path — reuses the release binary built above, no
# compilation, ~5 s wall. Skip with GEOSIR_TIER1_NO_SCRAPE=1.
if [ "${GEOSIR_TIER1_NO_SCRAPE:-0}" != 1 ]; then
    ./scripts/metrics_scrape.sh
    ./scripts/metrics_scrape.sh --cluster
fi

echo "tier1: OK"
