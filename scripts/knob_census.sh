#!/usr/bin/env bash
# A knob that nobody turns is a constant. For every public field of the
# five serving config structs, count who sets it outside the file that
# defines the struct — product code (the CLI and the libraries), tests
# (integration tests and `#[cfg(test)] mod tests` blocks) or
# `benchmark/` — and how many distinct values they set; then, for every
# `geosir serve` / `geosir cluster` flag, who passes it. Fails when a
# field is set by nothing outside its defining file: make it a constant
# beside the code that reads it, or derive it from a field that stays.
#
# A setter is a struct literal naming the field (`ServeConfig { workers:
# 1, .. }`, shorthand included) or an assignment `recv.field = value`.
# An assignment is attributed by its receiver: `.serve` / `.router` /
# `.health` name their struct, a variable its latest `let` of one of the
# five in that file; otherwise by the field name when no other struct in
# the tree declares it. A field name that another struct also declares
# (`shards`, `metrics_addr`, ...) and that has no attributed setter is
# reported ambiguous, not unset.
#
# usage: scripts/knob_census.sh [CHECKOUT]   (default: this repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

idx=
git rev-parse --git-dir >/dev/null 2>&1 || idx=--no-index

structs="ServeConfig HealthConfig RouterConfig DurabilityConfig ClusterConfig"
rs=('src/*.rs' 'crates/*.rs' 'tests/*.rs' 'benchmark/src/*.rs' 'examples/*.rs')
# every named field of every top-level struct in the tree: "Struct field"
# shellcheck disable=SC2046
decls=$(awk '
    FNR == 1 { open = "" }
    open == "" && /^(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+(<[^>]*>)? *\{ *$/ {
        open = $0
        sub(/^(pub(\([a-z]+\))? )?struct /, "", open)
        sub(/[ <{].*/, "", open)
        next
    }
    open != "" && /^\}/ { open = ""; next }
    open != "" && match($0, /^    (pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*:/) {
        f = substr($0, 1, RLENGTH - 1)
        sub(/^ *(pub(\([a-z]+\))? )?/, "", f)
        print open, f
    }' $(git grep $idx -l '^\(pub\(([a-z]*)\)\? \)\?struct ' -- "${rs[@]}"))
defs=$(for s in $structs; do
    printf '%s %s\n' "$s" "$(git grep $idx -l "^pub struct $s {" -- 'crates/*/src/*.rs')"
done)

status=0
# shellcheck disable=SC2046
awk -v structs="$structs" -v decls="$decls" -v defs="$defs" '
function class(file, line) {
    if (file ~ /^benchmark\//) return "bench"
    if (file ~ /(^|\/)tests\//) return "test"
    if (testfrom[file] && line >= testfrom[file]) return "test"
    return "product"
}
function hit(s, f, value, file, line) {
    if (file == deffile[s]) return
    if (!((s, f) in isfield)) return
    sites[s, f, class(file, line)]++
    gsub(/[ \t\n]+/, " ", value)
    if (!((s, f, value) in seenval)) { seenval[s, f, value] = 1; values[s, f]++ }
}
# One comma-separated piece of a struct literal of `s`.
function piece(s, text, file, line,    name) {
    sub(/^[ \t\n]+/, "", text)
    sub(/[ \t\n]+$/, "", text)
    if (text == "" || substr(text, 1, 2) == "..") return
    if (match(text, /^[a-z_][a-z0-9_]*[ \t\n]*:/) && substr(text, RLENGTH + 1, 1) != ":") {
        name = substr(text, 1, RLENGTH - 1)
        sub(/[ \t\n]+$/, "", name)
        hit(s, name, substr(text, RLENGTH + 1), file, line)
    } else if (text ~ /^[a-z_][a-z0-9_]*$/) {
        hit(s, text, text, file, line)
    }
}
# Scan one whole file (lines L[1..nl]).
function scan(file,    i, j, c, line, len, top, recent, ident, before, k, instr, s, m, recv, f, rest, value) {
    testfrom[file] = 0
    for (i = 1; i <= nl; i++) if (L[i] ~ /^[ \t]*mod tests *\{/) { testfrom[file] = i; break }
    # struct literals: a bracket stack, literal buffers at depth 1
    top = 0; recent = ""; instr = 0
    for (i = 1; i <= nl; i++) {
        line = L[i]
        len = length(line)
        for (j = 1; j <= len; j++) {
            c = substr(line, j, 1)
            if (instr) {
                for (k = 1; k <= top; k++) if (lit[k] != "") buf[k] = buf[k] c
                if (c == "\\") { j++; for (k = 1; k <= top; k++) if (lit[k] != "") buf[k] = buf[k] substr(line, j, 1); continue }
                if (c == "\"") instr = 0
                continue
            }
            if (c == "/" && substr(line, j + 1, 1) == "/") break
            if (c == "'\''" && substr(line, j + 2, 1) == "'\''") { j += 2; continue }
            if (c == "'\''" && substr(line, j + 1, 1) == "\\" && substr(line, j + 3, 1) == "'\''") { j += 3; continue }
            if (c == "\"") instr = 1
            if (c == "{" || c == "(" || c == "[") {
                for (k = 1; k <= top; k++) if (lit[k] != "") buf[k] = buf[k] c
                top++; lit[top] = ""; buf[top] = ""; at[top] = i
                if (c == "{") {
                    before = recent
                    sub(/[ \t]+$/, "", before)
                    if (match(before, /[A-Za-z_][A-Za-z0-9_]*$/)) {
                        ident = substr(before, RSTART)
                        before = substr(before, 1, RSTART - 1)
                        sub(/[ \t]+$/, "", before)
                        if ((ident in known) && before !~ /(struct|impl|for|enum|trait|->)$/)
                            lit[top] = ident
                    }
                }
                recent = ""
                continue
            }
            if (c == "}" || c == ")" || c == "]") {
                if (top > 0) {
                    if (lit[top] != "") piece(lit[top], buf[top], file, at[top])
                    top--
                }
                for (k = 1; k <= top; k++) if (lit[k] != "") buf[k] = buf[k] c
                recent = recent c
                continue
            }
            if (c == "," && top > 0 && lit[top] != "") {
                piece(lit[top], buf[top], file, i)
                buf[top] = ""; at[top] = i
                for (k = 1; k < top; k++) if (lit[k] != "") buf[k] = buf[k] c
                continue
            }
            for (k = 1; k <= top; k++) if (lit[k] != "") buf[k] = buf[k] c
            recent = substr(recent c, length(recent c) > 80 ? length(recent c) - 79 : 1)
        }
        for (k = 1; k <= top; k++) if (lit[k] != "") buf[k] = buf[k] "\n"
        recent = recent " "
    }
    # assignments, attributed by receiver
    split("", vartype)
    for (i = 1; i <= nl; i++) {
        line = L[i]
        sub(/\/\/.*/, "", line)
        if (match(line, /let (mut )?[a-z_][a-z0-9_]*/)) {
            f = substr(line, RSTART, RLENGTH)
            sub(/^let (mut )?/, "", f)
            delete vartype[f]
            if (match(line, /let (mut )?[a-z_][a-z0-9_]*[^=]*= *[A-Za-z]+Config( *::| *\{)/)) {
                s = substr(line, RSTART, RLENGTH)
                sub(/^[^=]*= */, "", s)
                sub(/[^A-Za-z].*/, "", s)
                if (s in known) vartype[f] = s
            }
        }
        rest = line
        while (match(rest, /[a-z_][a-z0-9_.]*\.[a-z_][a-z0-9_]* *=/)) {
            m = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if (substr(rest, 1, 1) ~ /[=>]/) continue
            recv = m; sub(/\.[a-z_][a-z0-9_]* *=$/, "", recv)
            f = m; sub(/ *=$/, "", f); sub(/.*\./, "", f)
            s = ""
            k = recv; sub(/.*\./, "", k)
            if (recv ~ /\./ && (k in nest)) s = nest[k]
            else if (recv !~ /\./ && (recv in vartype)) s = vartype[recv]
            else if (owners[f] == 1) s = owner1[f]
            if (s != "" && ((s, f) in isfield)) {
                # the value, from the next line when this one ends at `=`
                value = rest ~ /^ *$/ && i < nl ? L[i + 1] : rest
                sub(/;.*/, "", value)
                hit(s, f, value, file, i)
            } else if (owners[f] > 1) {
                for (k in known) if ((k, f) in isfield) amb[k, f]++
            }
        }
    }
}
BEGIN {
    n = split(structs, S, " ")
    for (i = 1; i <= n; i++) known[S[i]] = 1
    nest["serve"] = "ServeConfig"; nest["router"] = "RouterConfig"; nest["health"] = "HealthConfig"
    m = split(decls, D, "\n")
    for (i = 1; i <= m; i++) {
        split(D[i], p, " ")
        if ((p[1], p[2]) in declared) continue
        declared[p[1], p[2]] = 1
        owners[p[2]]++
        owner1[p[2]] = p[1]
    }
    m = split(defs, D, "\n")
    for (i = 1; i <= m; i++) { split(D[i], p, " "); deffile[p[1]] = p[2] }
    # the five structs fields, in declaration order
    for (i = 1; i <= n; i++) {
        file = deffile[S[i]]
        inside = 0
        while ((getline line < file) > 0) {
            if (line ~ ("^pub struct " S[i] " \\{")) { inside = 1; continue }
            if (inside && line ~ /^\}/) break
            if (inside && match(line, /^    pub [a-z_][a-z0-9_]*:/)) {
                f = substr(line, 9, RLENGTH - 9)
                order[++nf] = S[i] SUBSEP f
                isfield[S[i], f] = 1
            }
        }
        close(file)
    }
}
FNR == 1 && NR > 1 { scan(prev) ; nl = 0 }
{ L[++nl] = $0; prev = FILENAME }
END {
    if (nl) scan(prev)
    printf "%-17s %-18s %7s %5s %5s %6s  %s\n", "struct", "field", "product", "test", "bench", "values", "status"
    bad = 0
    for (i = 1; i <= nf; i++) {
        split(order[i], p, SUBSEP)
        s = p[1]; f = p[2]
        pr = sites[s, f, "product"] + 0; te = sites[s, f, "test"] + 0; be = sites[s, f, "bench"] + 0
        status = "set"
        if (pr + te + be == 0) {
            if (owners[f] > 1) status = "ambiguous: another struct declares it (" amb[s, f] + 0 " unattributed assignment(s))"
            else { status = "UNSET"; bad++ }
        }
        printf "%-17s %-18s %7d %5d %5d %6d  %s\n", s, f, pr, te, be, values[s, f] + 0, status
    }
    printf "%d public fields across the %d structs\n", nf, n
    if (bad) {
        printf "knob_census: FAIL — %d field(s) set by nothing outside their defining file: make each a constant, or derive it\n", bad > "/dev/stderr"
        exit 1
    }
}
' $(git grep $idx -l '' -- "${rs[@]}") || status=$?

# Flags: every `"--flag" =>` arm of `run` in the two command files, and
# who passes it — a quoted "--flag" in another .rs file, or the flag in
# a script under scripts/.
printf '\n%-20s %-14s %7s %5s %5s\n' flag commands product test bench
for cmd in serve:src/server_cmd.rs cluster:src/cluster_cmd.rs; do
    awk -v cmd="${cmd%%:*}" '
        /^pub fn run\(/ { inrun = 1 }
        inrun && /^}/ { inrun = 0 }
        inrun && match($0, /"--[a-z-]+" *=>/) {
            f = substr($0, RSTART + 1, RLENGTH)
            sub(/".*/, "", f)
            print f, cmd
        }' "${cmd#*:}"
done | awk '
    !($1 in cmds) { order[++n] = $1; cmds[$1] = $2; next }
    { cmds[$1] = cmds[$1] "," $2 }
    END { for (i = 1; i <= n; i++) print order[i], cmds[order[i]] }' |
    while read -r flag cmds; do
        { git grep $idx -c -F "\"$flag\"" -- "${rs[@]}" ':!src/server_cmd.rs' \
            ':!src/cluster_cmd.rs' || true
          git grep $idx -c -w -e "$flag" -- 'scripts/*.sh' ':!scripts/knob_census.sh' || true; } |
            awk -F: -v flag="$flag" -v cmds="$cmds" '
                $1 ~ /^benchmark\// { b += $2; next }
                $1 ~ /(^|\/)tests\// || $1 ~ /^scripts\// { t += $2; next }
                { p += $2 }
                END { printf "%-20s %-14s %7d %5d %5d\n", flag, cmds, p, t, b }'
    done
[ "$status" -eq 0 ] && echo "knob_census: OK"
exit "$status"
