#!/bin/sh
# Per-layer CPU profile of the Quick-scale paper pass: runs
# `flatflash-bench -quick -cpuprofile` and folds `go tool pprof -top` flat
# time by simulator package (internal/<pkg>), so a change's host cost shows
# up as a shift between layers. Any other symbol (the Go runtime, the
# standard library, the binary's main package) lands in one row per import
# path; page copies show up there as runtime.memmove.
#
# Flat seconds are CPU seconds summed over every worker. The figures' cells
# run on GOMAXPROCS workers, so the table's total exceeds the run's wall
# time; compare shares between runs at the same GOMAXPROCS.
#
# Run from the repo root (make profile does). The binary, the profile and
# the run's report stay in .profile/.
set -eu

dir=.profile
mkdir -p "$dir"
go build -o "$dir/flatflash-bench" ./cmd/flatflash-bench
"$dir/flatflash-bench" -quick -cpuprofile "$dir/cpu.prof" > "$dir/quick.txt"
go tool pprof -top -nodecount=1000000 "$dir/flatflash-bench" "$dir/cpu.prof" 2>/dev/null > "$dir/top.txt"

python3 - "$dir/top.txt" <<'PY'
import collections, re, sys

units = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0, "min": 60.0, "h": 3600.0}
row = re.compile(r"^\s*([0-9.]+)(ns|us|µs|ms|s|min|h)\s+[0-9.]+%\s+[0-9.]+%\s+\S+\s+[0-9.]+%\s+(.+)$")

def layer(fn):
    # "flatflash/internal/ftl.(*FTL).collect" -> "ftl"; any other symbol
    # keeps its import path: "runtime.memmove" -> "runtime".
    m = re.match(r"flatflash/internal/([^./]+)", fn)
    return m.group(1) if m else fn.split(".", 1)[0]

flat = collections.Counter()
for line in open(sys.argv[1]):
    m = row.match(line)
    if m:
        flat[layer(m.group(3))] += float(m.group(1)) * units[m.group(2)]
total = sum(flat.values())
if total == 0:
    sys.exit("profile: no samples in the profile")
print("%-28s %10s %7s" % ("layer", "flat_s", "flat%"))
for name, sec in sorted(flat.items(), key=lambda kv: (-kv[1], kv[0])):
    print("%-28s %10.3f %6.1f%%" % (name, sec, 100 * sec / total))
print("%-28s %10.3f %6.1f%%" % ("total", total, 100.0))
PY
