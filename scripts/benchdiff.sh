#!/bin/sh
# Diffs two BENCH_*.json snapshots written by scripts/bench.sh and prints
# per-benchmark ns/op and allocs/op deltas:
#
#   ./scripts/benchdiff.sh BENCH_3.json BENCH_4.json
#
# Negative percentages are improvements. A "~" after an ns/op delta marks it
# as inside the run-to-run spread: one side's median falls within the other
# side's min..max (snapshots taken with COUNT=N; see scripts/bench.sh).
# Benchmarks present in only one snapshot are listed as added/removed. One warning line comes first when
# the snapshots' "_meta" fingerprints show a different CPU, core count or Go
# version, or when either snapshot has none: such deltas mix machine and code.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD.json NEW.json" >&2
    exit 2
fi
old=$1
new=$2
[ -f "$old" ] || { echo "benchdiff: no such file: $old" >&2; exit 2; }
[ -f "$new" ] || { echo "benchdiff: no such file: $new" >&2; exit 2; }

# A snapshot with no benchmark entries (an aborted bench run, or a stray
# empty "{}" file) would diff as everything-added/everything-removed, which
# reads like a regression. Skip the comparison instead.
for f in "$old" "$new"; do
    if ! grep -q '"Benchmark' "$f"; then
        echo "benchdiff: $f contains no benchmarks, skipping comparison"
        exit 0
    fi
done

# meta FILE KEY prints one field of FILE's "_meta" line (empty if absent).
meta() {
    grep '"_meta"' "$1" | sed -n "s/.*\"$2\": \"*\([^\",}]*\).*/\1/p"
}
missing=""
for f in "$old" "$new"; do
    grep -q '"_meta"' "$f" || missing="$missing $f"
done
if [ -n "$missing" ]; then
    echo "benchdiff: warning: no _meta machine fingerprint in$missing; deltas may mix machine and code"
else
    for key in cpu nproc go; do
        if [ "$(meta "$old" $key)" != "$(meta "$new" $key)" ]; then
            echo "benchdiff: warning: snapshots differ in machine (cpu \"$(meta "$old" cpu)\" x$(meta "$old" nproc) $(meta "$old" go) vs \"$(meta "$new" cpu)\" x$(meta "$new" nproc) $(meta "$new" go)); deltas mix machine and code"
            break
        fi
    done
fi

awk -v oldfile="$old" -v newfile="$new" '
# Each data line of a snapshot looks like:
#   "BenchmarkName": {"ns_per_op": 123.4, "allocs_per_op": 5, "min": 120, "max": 130},
# where min and max are absent from snapshots older than COUNT=N.
/"ns_per_op"/ {
    line = $0
    gsub(/[",{}]/, " ", line)
    n = split(line, f, /[[:space:]:]+/)
    name = ""; ns = ""; allocs = ""; lo = ""; hi = ""
    for (i = 1; i <= n; i++) {
        if (f[i] ~ /^Benchmark/) name = f[i]
        if (f[i] == "ns_per_op") ns = f[i + 1]
        if (f[i] == "allocs_per_op") allocs = f[i + 1]
        if (f[i] == "min") lo = f[i + 1]
        if (f[i] == "max") hi = f[i + 1]
    }
    if (name == "") next
    if (FILENAME == oldfile) {
        oldns[name] = ns; oldallocs[name] = allocs; oldlo[name] = lo; oldhi[name] = hi
    } else {
        newns[name] = ns; newallocs[name] = allocs; newlo[name] = lo; newhi[name] = hi
    }
    if (!(name in seen)) { seen[name] = 1; order[++count] = name }
}
# within reports whether x lies in [lo, hi]; an absent spread holds nothing.
function within(x, lo, hi) {
    return lo != "" && hi != "" && x + 0 >= lo + 0 && x + 0 <= hi + 0
}
END {
    printf "%-45s %12s %12s %8s %10s %10s %8s\n", \
        "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta"
    for (i = 1; i <= count; i++) {
        name = order[i]
        if (!(name in oldns)) {
            printf "%-45s %12s %12s %8s %10s %10s %8s\n", \
                name, "-", newns[name], "added", "-", newallocs[name], "added"
            continue
        }
        if (!(name in newns)) {
            printf "%-45s %12s %12s %8s %10s %10s %8s\n", \
                name, oldns[name], "-", "removed", oldallocs[name], "-", "removed"
            continue
        }
        nsdelta = (oldns[name] > 0) ? sprintf("%+.1f%%", 100 * (newns[name] - oldns[name]) / oldns[name]) : "n/a"
        if (within(newns[name], oldlo[name], oldhi[name]) || within(oldns[name], newlo[name], newhi[name]))
            nsdelta = nsdelta "~"
        adelta = (oldallocs[name] > 0) \
            ? sprintf("%+.1f%%", 100 * (newallocs[name] - oldallocs[name]) / oldallocs[name]) \
            : (newallocs[name] > 0 ? "+new" : "=")
        printf "%-45s %12s %12s %8s %10s %10s %8s\n", \
            name, oldns[name], newns[name], nsdelta, oldallocs[name], newallocs[name], adelta
    }
}' "$old" "$new"
