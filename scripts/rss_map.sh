#!/usr/bin/env bash
# Where one benchmark workload's resident memory goes, at its peak.
#
#   bash scripts/rss_map.sh <workload>      (exact_sketch, approx_sketch,
#                                            churn_durable, cluster_mixed)
#
# Runs one untraced `benchmark/run.sh --workload W --seed 1` and samples
# /proc/<pid>/smaps of the newest `geosir serve` or `geosir cluster`
# process every 20 ms. At the sample with the largest resident total it
# prints the anonymous mappings largest first (kB resident, address
# range, name), their total, and the file-backed total; then the run's
# own `rss_mb`. Linux only. Not part of tier-1: it needs a benchmark run
# (≈ 1.5 min).
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/rss_map.sh <workload>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bash benchmark/run.sh --workload "$workload" --seed 1 --trace 0 >"$tmp/run.log" 2>"$tmp/run.err" &
run=$!

peak=0
while kill -0 "$run" 2>/dev/null; do
    pid=$(pgrep -n -f 'release/geosir (serve|cluster)' || true)
    if [ -n "$pid" ] && cat "/proc/$pid/smaps" >"$tmp/sample" 2>/dev/null; then
        rss=$(awk '/^Rss:/ { s += $2 } END { print s + 0 }' "$tmp/sample")
        if [ "$rss" -gt "$peak" ]; then
            peak=$rss
            mv "$tmp/sample" "$tmp/peak"
            echo "$pid" >"$tmp/pid"
        fi
    fi
    sleep 0.02
done
if ! wait "$run"; then
    echo "rss_map: the benchmark run failed:" >&2
    tail -20 "$tmp/run.err" >&2
    exit 1
fi
if [ ! -f "$tmp/peak" ]; then
    echo "rss_map: never saw a geosir serve or cluster process" >&2
    exit 1
fi

echo "$workload: peak sample of pid $(cat "$tmp/pid"), $peak kB resident"
# A mapping's header line names a path for a file-backed mapping; an
# anonymous one has none, or a bracketed name ([heap], [stack], ...).
awk '
    /^[0-9a-f]+-[0-9a-f]+ / { range = $1; name = ($6 == "" ? "[anon]" : $6); next }
    /^Rss:/ {
        if (name ~ /^\//) { file += $2 } else if ($2 > 0) { printf "%8d kB  %s  %s\n", $2, range, name; anon += $2 }
    }
    END { printf "TOTAL %d kB anonymous, %d kB file-backed\n", anon, file }
' "$tmp/peak" | sort -k1,1nr | awk '/^TOTAL/ { total = $0; next } { print } END { print total }'
rss_mb=$(tail -1 "$tmp/run.log" | sed -n 's/.*"rss_mb": *{"value": *\([0-9.]*\).*/\1/p')
echo "the run's rss_mb (VmHWM): ${rss_mb:-?} MB"
