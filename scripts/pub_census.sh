#!/usr/bin/env bash
# `pub` means somebody else uses it. For every `pub fn` / `pub const` /
# `pub static` under crates/*/src, fail if its name occurs as a word in
# no .rs file other than the one defining it (searched: src/, crates/,
# benchmark/src/, examples/, tests/). rustc's dead_code lint stops at
# `pub`; this is the step before it — the fix is to drop the `pub`, after
# which tier-1's `clippy -D warnings` decides whether the item lives.
# Types are exempt: callers hold them unnamed through signatures.
#
# One pass instead of a `git grep -w NAME` per item: every identifier
# token of every file is listed once, which is what -w matches.
#
# usage: scripts/pub_census.sh [CHECKOUT]   (default: this repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# An exported tree (git archive) has no index to search.
idx=
git rev-parse --git-dir >/dev/null 2>&1 || idx=--no-index

ident='[A-Za-z_][A-Za-z0-9_]*'
dead=$(
    {
        git grep $idx -oE "$ident" -- 'src/*.rs' 'crates/*.rs' \
            'benchmark/src/*.rs' 'examples/*.rs' 'tests/*.rs' |
            sort -u | sed 's/^/use:/'
        git grep $idx -oE "pub ((const|unsafe|async) )*(fn|const|static) (mut )?$ident" \
            -- 'crates/*/src/*.rs' | sed -E 's/^([^:]*):.* /def:\1:/' | sort -u
    } | awk -F: '
        $1 == "use" { files[$3]++ }
        $1 == "def" && files[$3] < 2 { print "  " $2 ": " $3 }'
)
if [ -n "$dead" ]; then
    echo "pub_census: FAIL — pub items no other file names (drop the pub; the dead_code lint decides the rest):" >&2
    echo "$dead" >&2
    exit 1
fi
echo "pub_census: OK"
