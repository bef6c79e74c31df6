#!/usr/bin/env bash
# Non-blank product and test lines per crate. Product is every line of
# `src/` outside a `#[cfg(test)] mod tests` block; test is those blocks,
# a `tests.rs` module file and anything under a `tests/` directory (the
# crate's integration tests, or a test module's own files). Fails when a
# file of the dynamic base (`crates/core/src/dynamic/`) is over 1 000
# lines.
#
#   bash scripts/lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-blank lines of one file as "product test": a `mod tests {` right
# after `#[cfg(test)]` opens a test block that its matching brace closes
# (braces inside string and char literals and comments are not counted).
count() {
    awk '
        { line = $0 }
        /^[[:space:]]*$/ { next }
        {
            stripped = line
            gsub(/"([^"\\]|\\.)*"/, "", stripped)
            gsub(/'\''([^'\''\\]|\\.)'\''/, "", stripped)
            sub(/\/\/.*/, "", stripped)
        }
        depth == 0 && prev_cfg && stripped ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod tests[[:space:]]*\{/ {
            depth = 0; intest = 1; test += 1 + cfgline; product -= cfgline
            depth += gsub(/\{/, "{", stripped) - gsub(/\}/, "}", stripped)
            prev_cfg = 0
            next
        }
        intest {
            test++
            depth += gsub(/\{/, "{", stripped) - gsub(/\}/, "}", stripped)
            if (depth <= 0) intest = 0
            next
        }
        {
            product++
            prev_cfg = (stripped ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/)
            cfgline = prev_cfg ? 1 : 0
        }
        END { print product + 0, test + 0 }
    ' "$1"
}

total_p=0
total_t=0
printf '%-16s %8s %8s\n' crate product test
for dir in . crates/*; do
    [ -d "$dir/src" ] || continue
    p=0
    t=0
    while IFS= read -r f; do
        case "$f" in
            */tests/* | */tests.rs) t=$((t + $(grep -cv '^[[:space:]]*$' "$f" || true))) ;;
            *)
                read -r fp ft < <(count "$f")
                p=$((p + fp))
                t=$((t + ft))
                ;;
        esac
    done < <(find "$dir/src" -name '*.rs' | sort)
    if [ -d "$dir/tests" ]; then
        t=$((t + $(find "$dir/tests" -name '*.rs' -exec cat {} + | grep -cv '^[[:space:]]*$' || true)))
    fi
    name=$(basename "$(cd "$dir" && pwd)")
    [ "$dir" = . ] && name=geosir
    printf '%-16s %8d %8d\n' "$name" "$p" "$t"
    total_p=$((total_p + p))
    total_t=$((total_t + t))
done
printf '%-16s %8d %8d\n' total "$total_p" "$total_t"

status=0
if [ -d crates/core/src/dynamic ]; then
    while IFS= read -r f; do
        n=$(wc -l < "$f")
        if [ "$n" -gt 1000 ]; then
            echo "lines: $f has $n lines (limit 1 000)" >&2
            status=1
        fi
    done < <(find crates/core/src/dynamic -name '*.rs' | sort)
fi
exit "$status"
