#!/bin/sh
# Runs the full benchmark suite and distills it into a BENCH_*.json file:
# a {benchmark name: {ns_per_op, allocs_per_op, min, max}} map for diffing
# across commits (see scripts/benchdiff.sh). The raw `go test -bench` output
# streams to the terminal.
#
# The output name comes from the single argument. `make bench` and a bare
# ./scripts/bench.sh both write BENCH_head.json, which git ignores, so a
# local run never overwrites a committed BENCH_<n>.json snapshot. To commit
# a new snapshot, pass its name.
#
# BENCHTIME overrides the per-benchmark budget (default 1s). CI's warn-only
# regression diff sets a small iteration count to keep the gate fast.
#
# COUNT=N runs every benchmark N times (go test -count=N, default 1).
# ns_per_op and allocs_per_op are then the medians of the N runs, and min
# and max bound the N ns/op figures, so benchdiff can tell a delta from the
# spread between repeats:
#
#   COUNT=5 ./scripts/bench.sh
#
# The snapshot's first entry, "_meta", fingerprints the machine and code it
# was taken on: CPU model, core count, Go version and git revision.
# scripts/benchdiff.sh warns when two snapshots' machines differ.
set -eu

if [ $# -gt 1 ]; then
    echo "usage: $0 [output.json]" >&2
    exit 2
fi
out=${1:-BENCH_head.json}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -bench=. -benchmem -benchtime="${BENCHTIME:-1s}" -count="${COUNT:-1}" -run='^$' ./... | tee "$raw"

cpu=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null | head -1 | tr -d '"\\')
ncpu=$(nproc 2>/dev/null || echo 0)
gover=$(go version | sed 's/^go version //')
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
meta=$(printf '"_meta": {"cpu": "%s", "nproc": %s, "go": "%s", "rev": "%s"}' \
    "${cpu:-unknown}" "$ncpu" "$gover" "$rev")

awk -v out="$out" -v meta="$meta" '
# median sorts the cnt values v[name, 1..cnt] in place and returns the
# middle one (the mean of the two middle ones for an even count).
function median(v, name, cnt,    i, j, x) {
    for (i = 2; i <= cnt; i++) {
        x = v[name, i]
        for (j = i - 1; j >= 1 && v[name, j] > x; j--) v[name, j + 1] = v[name, j]
        v[name, j + 1] = x
    }
    if (cnt % 2) return v[name, (cnt + 1) / 2]
    return (v[name, cnt / 2] + v[name, cnt / 2 + 1]) / 2
}
$1 ~ /^Benchmark/ && $3 == "ns/op" || ($4 == "ns/op") {
    # Lines look like: BenchmarkName-8  1234  567 ns/op  89 B/op  4 allocs/op
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") ns = $i
        if ($(i + 1) == "allocs/op") allocs = $i
    }
    if (ns != "") {
        if (allocs == "") allocs = 0
        if (!(name in runs)) names[++n] = name
        k = ++runs[name]
        nsv[name, k] = ns + 0
        allocv[name, k] = allocs + 0
    }
}
END {
    printf "{\n  %s%s\n", meta, (n > 0 ? "," : "") > out
    for (i = 1; i <= n; i++) {
        name = names[i]
        k = runs[name]
        mid = median(nsv, name, k)
        printf "  \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"min\": %s, \"max\": %s}%s\n", \
            name, mid, median(allocv, name, k), nsv[name, 1], nsv[name, k], (i < n ? "," : "") >> out
    }
    printf "}\n" >> out
}' "$raw"

echo "bench: wrote $out"
