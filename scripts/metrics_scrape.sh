#!/usr/bin/env bash
# Smoke-scrape the observability endpoints of a live server.
#
# Default mode: boot `geosir serve --data-dir --metrics-addr` with its
# slow-query log armed at 0 µs, drive a few requests through the wire,
# then assert the core /metrics series exist and are non-zero,
# /debug/last_queries holds the plain query sent below with its stages
# and the slow-query log holds that record byte for byte, /healthz is ok,
# /readyz goes ready with all four watchdog components, and the
# /debug/journal recorded recovery; `geosir explain` against a second,
# bulk-loaded node must print a scan plan, that node's base must
# report the bytes it holds, and its one `geosir similar-approx` must
# have rejected candidates from the query's lower-bound raster.
#
# --cluster mode: boot a 2-shard x 1-replica `geosir cluster` with the
# router's federated endpoint and assert one scrape answers for the
# whole cluster: merged unlabeled totals, `shard="0"`/`shard="1"`
# labeled series, replication-lag gauges, router scrape telemetry, the
# /debug/cluster JSON topology, the router's record of a routed query
# with a stage per shard on /debug/last_queries — and, with the router's
# slow-query threshold at 0 µs, the same record as a line of its
# `router-slow.*.jsonl` — and the federated /healthz + /readyz with
# per-shard attribution.
#
# Uses an already-built release binary (fast path: no compilation here)
# and bash /dev/tcp, so it needs neither curl nor extra tooling.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/geosir
if [ ! -x "$BIN" ]; then
    echo "metrics_scrape: $BIN missing — run cargo build --release first" >&2
    exit 1
fi

MODE=single
if [ "${1:-}" = "--cluster" ]; then
    MODE=cluster
fi

PORT=${GEOSIR_SCRAPE_PORT:-7431}
[ "$MODE" = cluster ] && PORT=$((PORT + 10))
MPORT=$((PORT + 1))
DATA=$(mktemp -d "${TMPDIR:-/tmp}/geosir-scrape.XXXXXX")
SERVER_PID=""
LOADED_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "$LOADED_PID" ] && kill "$LOADED_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$DATA"
}
trap cleanup EXIT

if [ "$MODE" = cluster ]; then
    # the router logs to <data-dir>/router unless told otherwise
    "$BIN" cluster "127.0.0.1:$PORT" --shards 2 --replicas 1 \
        --data-dir "$DATA" --metrics-addr "127.0.0.1:$MPORT" --slow-query-us 0 &
    SERVER_PID=$!
    SLOW_LOG="$DATA/router/router-slow"
else
    "$BIN" serve "127.0.0.1:$PORT" --data-dir "$DATA" \
        --metrics-addr "127.0.0.1:$MPORT" \
        --slow-query-log "$DATA/slow" --slow-query-us 0 &
    SERVER_PID=$!
    SLOW_LOG="$DATA/slow/slow"
fi

http_get() { # path [port] -> response on stdout
    # `|| return 1` is load-bearing: a bare failed `exec 3<>` inside an
    # `if` condition does not stop the function, and the trailing
    # `exec 3<&-` succeeds on a never-opened fd — so without it this
    # function returns 0 for a refused connection and the readiness
    # loop below breaks before the server is up.
    exec 3<>"/dev/tcp/127.0.0.1/${2:-$MPORT}" || return 1
    printf 'GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n' "$1" >&3
    cat <&3
    exec 3<&-
}

# One plain Query frame, k = 3, trace 0 (the server assigns one), over
# the closed triangle (0,0) (1,0) (0,1), in the wire's one layout:
# `version 6 | type 1 | len u32 = 65 | corr u64 = 1 | k u32 | trace u64 |
# closed u8 | npts u32 | 3 × (x, y) f64 | fnv1a32 of all of it`, all LE.
# No subcommand sends a plain Query, so it goes out raw; the script waits
# for the first byte of the reply, by which time the request is recorded.
QUERY_FRAME='\x06\x01\x41\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00'\
'\x00\x00\x00\x00\x00\x00\x00\x00\x01\x03\x00\x00\x00'\
'\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00'\
'\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\x00'\
'\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf0\x3f'\
'\x0d\x17\xfc\xfc'
send_query() {
    exec 4<>"/dev/tcp/127.0.0.1/$PORT" || return 1
    printf "$QUERY_FRAME" >&4
    IFS= read -r -n 1 -t 5 -u 4 _ || return 1
    exec 4<&-
}

# Wait for both listeners, then drive load through the wire so the
# series have something to show: each `geosir stats` round-trips a
# Stats and a MetricsDump frame through the read queue (and, in cluster
# mode, scatters them across every shard).
for i in $(seq 1 50); do
    if http_get /metrics >/dev/null 2>&1; then break; fi
    sleep 0.2
    if [ "$i" = 50 ]; then echo "metrics_scrape: endpoint never came up" >&2; exit 1; fi
done
"$BIN" stats "127.0.0.1:$PORT" >/dev/null
"$BIN" stats "127.0.0.1:$PORT" >/dev/null
send_query || { echo "metrics_scrape: no reply to a plain Query" >&2; exit 1; }
# One exact query (an Explain frame answers it through the same entry a
# Query does), so the exact tier's own series exist. Node only: the
# router does not route EXPLAIN.
#
# Its printout is README's EXPLAIN walkthrough: on a second node, whose
# bulk-loaded corpus fills a level, every level of the plan must read
# `plan=scan`, and neither node's may name the envelope the scan replaced.
check_explain() { # printout, whether a level is required
    case "$1" in
        *ring* | *triangles* | *ε* | *exhausted*)
            echo "metrics_scrape: geosir explain prints envelope fields:" >&2
            printf '%s\n' "$1" >&2
            exit 1
            ;;
    esac
    case "$2:$1" in
        no:* | yes:*level\ [0-9]*:\ *plan=scan*) ;;
        *)
            echo "metrics_scrape: geosir explain printed no scanned level:" >&2
            printf '%s\n' "$1" >&2
            exit 1
            ;;
    esac
}
if [ "$MODE" = single ]; then
    check_explain "$("$BIN" explain "127.0.0.1:$PORT")" no
    "$BIN" serve "127.0.0.1:$((PORT + 2))" --shapes 600 \
        --metrics-addr "127.0.0.1:$((PORT + 3))" >/dev/null &
    LOADED_PID=$!
    for i in $(seq 1 50); do
        if EXPLAINED=$("$BIN" explain "127.0.0.1:$((PORT + 2))" --k 3 --seed 9 2>/dev/null) \
            && "$BIN" similar-approx "127.0.0.1:$((PORT + 2))" --seed 9 >/dev/null 2>&1 \
            && LOADED_METRICS=$(http_get /metrics "$((PORT + 3))"); then break; fi
        sleep 0.2
        if [ "$i" = 50 ]; then echo "metrics_scrape: loaded node never came up" >&2; exit 1; fi
    done
    kill "$LOADED_PID"
    check_explain "$EXPLAINED" yes
fi

BODY=$(http_get /metrics)
case "$BODY" in
    HTTP/1.1\ 200*) ;;
    *) echo "metrics_scrape: /metrics not 200:"; echo "$BODY"; exit 1 ;;
esac

# Both helpers avoid early-exit pipe consumers (`grep -q`, `head -1`):
# under `set -o pipefail` those close the pipe on first match and the
# still-writing printf dies with SIGPIPE, failing the pipeline — and
# the check — even though the series IS in the body. awk reading to EOF
# and bash `case` have no such race.
require_nonzero() { # series-prefix [body]
    value=$(printf '%s\n' "${2:-$BODY}" \
        | awk -v s="$1 " 'index($0, s) == 1 && !found { v = $NF; found = 1 }
                          END { if (found) print v }')
    if [ -z "$value" ] || [ "$value" = 0 ]; then
        echo "metrics_scrape: series $1 missing or zero (got '$value')" >&2
        printf '%s\n' "$BODY" >&2
        exit 1
    fi
}

require_present() { # series-substring
    case "$BODY" in
        *"$1"*) ;;
        *)
            echo "metrics_scrape: series $1 missing" >&2
            printf '%s\n' "$BODY" >&2
            exit 1
            ;;
    esac
}

require_ring() { # fragment... that /debug/last_queries must contain
    RING=$(http_get /debug/last_queries)
    case "$RING" in
        HTTP/1.1\ 200*) ;;
        *) echo "metrics_scrape: /debug/last_queries not 200:"; echo "$RING"; exit 1 ;;
    esac
    for frag in "$@"; do
        case "$RING" in
            *"$frag"*) ;;
            *)
                echo "metrics_scrape: /debug/last_queries missing $frag" >&2
                printf '%s\n' "$RING" >&2
                exit 1
                ;;
        esac
    done
}

# The slow-query log is the request ring's sink: at a threshold of 0 the
# newest record of `kind` on /debug/last_queries must be a line of the
# log, byte for byte. The ring's array splits into one record per line at
# each `},{"trace_id":`; a record is flat but for its stages and notes.
require_slow_line() { # kind
    record="" line=""
    for i in $(seq 1 25); do
        record=$(http_get /debug/last_queries | awk -v k="\"kind\":\"$1\"" '
            index($0, "[{") == 1 {
                s = substr($0, 2, length($0) - 2)
                gsub(/\},\{"trace_id":/, "}\n{\"trace_id\":", s)
                n = split(s, recs, "\n")
                for (j = 1; j <= n; j++) if (index(recs[j], k) && !found) { print recs[j]; found = 1 }
            }')
        trace=${record#\{\"trace_id\":}
        trace=${trace%%,*}
        line=$(cat "$SLOW_LOG".*.jsonl 2>/dev/null \
            | awk -v t="{\"trace_id\":$trace," 'index($0, t) == 1')
        if [ -n "$record" ] && [ "$line" = "$record" ]; then return 0; fi
        sleep 0.2
    done
    echo "metrics_scrape: the $1 record and its slow-query line differ:" >&2
    printf 'ring: %s\nline: %s\n' "$record" "$line" >&2
    exit 1
}

# Health plane: /healthz (liveness) answers immediately; /readyz needs
# the watchdog's first verdict — federated, every shard's — so poll it
# briefly before asserting the body fragments.
check_health() { # healthz-frag readyz-frag...
    hfrag=$1
    shift
    HEALTH=$(http_get /healthz)
    case "$HEALTH" in
        HTTP/1.1\ 200*"$hfrag"*) ;;
        *)
            echo "metrics_scrape: /healthz not 200 with $hfrag:" >&2
            printf '%s\n' "$HEALTH" >&2
            exit 1
            ;;
    esac
    READY=""
    for i in $(seq 1 50); do
        READY=$(http_get /readyz) || true
        case "$READY" in HTTP/1.1\ 200*) break ;; esac
        sleep 0.2
        if [ "$i" = 50 ]; then
            echo "metrics_scrape: /readyz never went 200:" >&2
            printf '%s\n' "$READY" >&2
            exit 1
        fi
    done
    for frag in "$@"; do
        case "$READY" in
            *"$frag"*) ;;
            *)
                echo "metrics_scrape: /readyz missing $frag" >&2
                printf '%s\n' "$READY" >&2
                exit 1
                ;;
        esac
    done
}

if [ "$MODE" = cluster ]; then
    # Federated view: merged unlabeled totals AND per-shard labels from
    # one endpoint, with router-native and replication-lag series.
    require_nonzero 'geosir_requests_total'
    require_nonzero 'geosir_requests_total{shard="0"}'
    require_nonzero 'geosir_requests_total{shard="1"}'
    require_nonzero 'geosir_router_scrapes_total'
    require_present 'geosir_replication_lag_records{shard='
    require_present 'geosir_replication_lag_ms{shard='
    require_present 'geosir_queue_depth{queue="read",shard='
    require_present 'geosir_base_heap_bytes{shard='

    TOPO=$(http_get /debug/cluster)
    case "$TOPO" in
        HTTP/1.1\ 200*) ;;
        *) echo "metrics_scrape: /debug/cluster not 200:"; echo "$TOPO"; exit 1 ;;
    esac
    for frag in '"shard":0' '"shard":1' '"state":"closed"' '"lag_records":'; do
        case "$TOPO" in
            *"$frag"*) ;;
            *)
                echo "metrics_scrape: /debug/cluster missing $frag" >&2
                printf '%s\n' "$TOPO" >&2
                exit 1
                ;;
        esac
    done

    # The router's ring: the routed query, with a gather stage per shard,
    # which backend answered each shard — and its slow-query line.
    require_ring '"kind":"routed_query"' '"shard0"' '"shard0_backend":'
    require_slow_line routed_query

    # Federated health: the router is alive, and cluster readiness
    # carries per-shard attribution with component verdicts.
    check_health '"role":"router"' \
        '"ready":true' '"shard":0' '"shard":1' '"components"' '"primary_breaker"'
    JOURNAL=$(http_get /debug/journal)
    case "$JOURNAL" in
        HTTP/1.1\ 200*) ;;
        *) echo "metrics_scrape: /debug/journal not 200:"; echo "$JOURNAL"; exit 1 ;;
    esac

    echo "metrics_scrape: OK (cluster)"
    exit 0
fi

# Core series must exist with a non-zero value.
require_nonzero 'geosir_requests_total'
require_nonzero 'geosir_request_latency_us_count{type="stats"}'
# The epoch is legitimately 0 on a fresh idle base (no write has
# published a snapshot yet), and queue gauges are legitimately 0 when
# drained — presence is the check.
require_present 'geosir_snapshot_epoch '
require_present 'geosir_queue_depth{queue="read"}'
require_present 'geosir_queue_depth{queue="write"}'
# The exact tier's seed step reports under its own names, not as approx
# traffic: the query above found an empty base (no seeds), and it was
# not a QueryApprox.
require_nonzero 'geosir_exact_queries_total{seeded="false"}'
require_present 'geosir_exact_queries_total{seeded="true"}'
require_present 'geosir_exact_seed_reranked_total'
require_present 'geosir_exact_seed_tightness_permille'
# ...and so does the level scan (an empty base has no copy to scan, so
# presence; `dynamic::tests::a_scan_scores_every_level_copy_the_seed_did_not`
# pins the value). No served query runs the paper's matcher, and no
# series for it is exposed.
require_present 'geosir_exact_scan_copies_total'
require_present 'geosir_exact_scan_survivors_total'
case "$BODY" in
    *geosir_matcher_*)
        echo "metrics_scrape: a geosir_matcher_ series is exposed" >&2
        exit 1
        ;;
esac
# The query's lower-bound raster rejects copies before any distance: 0
# here (nothing to reject), but the loaded node's explained query above
# must have rejected some (`dynamic::tests::the_raster_changes_no_verdict_and_no_count`
# pins that it changes no answer or count).
require_present 'geosir_exact_scan_bound_rejects_total'
require_nonzero 'geosir_exact_scan_bound_rejects_total' "$LOADED_METRICS"
# ...and so does the loaded node's one `similar-approx`, whose rerank
# reads the same raster; those rejects count as approx traffic
# (`dynamic::tests::quantized_approx_rerank_changes_no_verdict_and_no_count`
# pins that they change no answer or count).
require_nonzero 'geosir_approx_bound_rejects_total' "$LOADED_METRICS"
# What deletes leave behind and what reclaiming it cost: 0 on a base
# nothing was deleted from, but exposed (`health_plane.rs` pins values).
require_present 'geosir_dead_shapes '
require_present 'geosir_dynamic_compactions_total'
# What the base holds on the heap (`Snapshot::heap_bytes`): 0 on this
# empty base, so presence; the 600-shape node's must be above 0.
require_present 'geosir_base_heap_bytes '
require_nonzero 'geosir_base_heap_bytes' "$LOADED_METRICS"
case "$BODY" in
    *geosir_approx_queries_total*)
        echo "metrics_scrape: an exact query was counted as approx traffic" >&2
        exit 1
        ;;
esac

# The node's ring: the plain query, with its stages, whether its scan was
# seeded — and its slow-query line.
require_ring '"kind":"query"' '"queue_wait"' '"seeded":'
require_slow_line query

# Node health: live, ready, and all four watchdog components reported.
check_health '"status":"ok"' \
    '"ready":true' '"read_only":false' '"wal_writer"' '"event_loop"' '"queues"' '"slo"'
JOURNAL=$(http_get /debug/journal)
case "$JOURNAL" in
    HTTP/1.1\ 200*recovery.done*) ;;
    *) echo "metrics_scrape: /debug/journal missing recovery.done:"; echo "$JOURNAL"; exit 1 ;;
esac

echo "metrics_scrape: OK"
