#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# `pub` means somebody else uses it: a pub fn/const/static whose name no
# other .rs file mentions loses its `pub` — and the clippy line above
# then says whether it lives (dead_code stops at `pub`).
bash scripts/pub_census.sh

# The canonical benchmark's contract: `benchmark/` is a workspace of its
# own compiled against these crates' public API and the CLI's
# `BaseTemplate`, so build it and run its unit tests here (one of them
# fails when `src/server_cmd.rs` / `src/cluster_cmd.rs` drift from the
# twin's copy). Shares this workspace's target directory, as
# `benchmark/run.sh` does; CI's `benchmark` job adds the smoke run.
(cd benchmark && CARGO_TARGET_DIR="$PWD/../target" cargo test -q --offline)

# SIMD parity: the feature-gated AVX2 kernels (segment scan, triangle
# leaf filter) must stay bit-identical to the scalar paths — the geom
# and core suites contain explicit parity asserts and re-run the shared
# property tests through the vector code when the feature is on. On
# hosts without AVX2 the runtime dispatch falls back and this reduces
# to a compile check of the gated code.
cargo test -q -p geosir-geom -p geosir-core --features simd
cargo clippy -p geosir-geom -p geosir-core -p geosir-serve --features simd --all-targets -- -D warnings

# Approximate tier: the geometric-hash and signature-cascade suites by
# name, so a filter typo or module rename cannot silently drop them from
# the gate (the full `cargo test` above already ran them once). Covers
# the hashing proptests (clamp/curve-distance/ternary-vs-linear),
# signature index parity across cascade merges, and the zero-allocation
# probe/rerank test — and beside it the dynamic base's heap budget:
# `heap_bytes` reconciles with the allocator, bytes per live copy stay
# under the flat layout's bound, and a carry allocates a constant
# handful of blocks whatever it moves.
cargo test -q -p geosir-core hashing
cargo test -q -p geosir-core approx
cargo test -q --test alloc_approx
cargo test -q --test heap_dynamic

# Exact tier: the seed-and-scan differential suite by name, plain and
# through the AVX2 kernels — served top-k (hash-tier seed, then every
# level scanned against τ, or from ∞ without a seed) = the static
# matcher's certify_all top-k = brute-force h_avg scan as (id, score)
# lists on the benchmark corpus and on the adversarial bases (τ = 0,
# ties at the cutoff, dead seeds, odd queries no seed exists for), the
# 288-world proptest where the paper's index is the scan's oracle
# (served = one retrieve_within(τ) envelope per level, merged), plus
# the index's own soundness proptests (partial-sum bound ≤ true
# h_avg; retrieve_within(τ) = the brute-force set). Any miss here is a
# wrong answer, not noise.
cargo test -q -p geosir-core --test seeded_exact
cargo test -q -p geosir-core --features simd --test seeded_exact
# ...and beside it the nearest-edge grid's own parity suite (`grid_*` in
# segindex.rs): `nearest` with the query's grid ≡ without, as (index,
# distance bits), on cell borders, ties, degenerate boxes, NaN/∞ and
# after a rebuild. seeded_exact above is its end-to-end twin — the
# served side looks distances up through the grid, the brute-force side
# (`PreparedShape::new`) never builds one.
cargo test -q -p geosir-geom --lib segindex::tests::grid_
cargo test -q -p geosir-geom --features simd --lib segindex::tests::grid_
# ...and the stored side's (`quantized_*` in similarity.rs and dynamic.rs):
# a quantized vertex's raster bound never exceeds its distance, so a copy
# the test rejects is one the forward pass abandons; the copy scorer is the
# polyline scorer bit for bit; recomputed copies equal insert-time ones
# after insert, carry, compaction, bulk load and restore.
cargo test -q -p geosir-core --lib quantized_
cargo test -q -p geosir-core --features simd --lib quantized_

# Router: the pipelined scatter-gather state machine and the cluster
# suites it must keep green, by name for the same reason (the
# failpoints pass below runs the whole server crate, these included).
# router_pipeline covers the window rule, hostile frames, Busy on a
# full table, the pipelining differential, the thread count under 512
# idle connections, one breaker strike per dead connection, late
# replies, and the per-shard latency stopwatch.
cargo test -q -p geosir-serve --test router_pipeline --test cluster_integration --test cluster_obs

# Wire: the codec suite by name too — the golden bytes of the one
# layout, and the hostile-payload properties (every frame kind cut at
# every payload offset, or with a few payload bytes changed, under a
# recomputed checksum) that are the only tests reaching the payload
# decoder with bad input. A decoder panic is remotely triggerable, so a
# filter must not be able to drop these silently.
cargo test -q -p geosir-serve --test wire_proptest

# Observability crate: the registry, the request ring and the record
# every answerer feeds it through (`Registry::record_request`). The
# root `cargo test` above does not reach it, and the server suites only
# see it from outside. Unit tests plus alloc_obs (zero-allocation record
# path; recording a request once the ring has wrapped allocates
# nothing), quantile_merge_proptest and registry_concurrent; ≈ 7 s.
cargo test -q -p geosir-obs

# Storage crate: the WAL (replay, repair, the tail's oracle proptest and
# shrink test), checkpoints, the manifest and the shipper (resume from
# the destination's length, segment order, idle passes that read no
# segment bytes). The root `cargo test` does not reach it, and the
# failpoints pass below builds it only as a dependency. Then the one
# chaos scenario that tears a shipped append and checks the replica
# still converges — a torn ship resumed at the wrong offset is what an
# incremental shipper and tail can get wrong (≈ 3 s; CI's cluster-chaos
# job runs all three).
cargo test -q -p geosir-storage
GEOSIR_CHAOS=1 cargo test -q --release -p geosir-serve --test cluster_chaos chaos_torn_and_delayed_shipping_still_converges

# Durability hooks: crash-recovery harness (abort-at-failpoint children)
# plus the full server suite with the fault hooks compiled in. Budget:
# the crash tests must stay under 30 s wall — they are child-process
# spawns, not sleeps — so a blowup here is a regression by itself.
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
