#!/bin/sh
# Tier-1 gate: formatting, vet, the flatflash-lint invariant suite, build,
# and the full test suite under the race detector. Run from the repo root
# (make ci does).
set -eu

# Every scratch file (binaries, lint output, run captures, mutant trees)
# lives under one private directory that is removed on exit, so two
# checkouts can run the gate at the same time.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== flatflash-lint =="
# Static enforcement of the simulator's determinism, virtual-time, and
# hot-path invariants (see DESIGN.md): any diagnostic fails the gate. The
# JSON output is re-emitted in file:line form (annotation-friendly) with a
# per-analyzer count summary, so a failing run names the invariant that
# broke, not just a wall of text.
go build -o "$scratch/flatflash-lint" ./cmd/flatflash-lint
"$scratch/flatflash-lint" -q -json ./... > "$scratch/lint.json" || true
python3 - "$scratch/lint.json" <<'EOF'
import json, sys, collections
diags = json.load(open(sys.argv[1]))
counts = collections.Counter(d["analyzer"] for d in diags)
for d in diags:
    print("%s:%d: %s: %s" % (d["file"], d["line"], d["analyzer"], d["message"]))
for name, n in sorted(counts.items()):
    print("  %-12s %d" % (name, n), file=sys.stderr)
sys.exit(1 if diags else 0)
EOF

echo "== flatflash-lint mutant smoke =="
# The analyzers themselves are load-bearing: each row below seeds one real
# regression into a scratch copy of the tree and requires the named analyzer
# alone to report it. The mutant must still pass go vet, so only the
# analyzer can fail it. A lint suite that stays green on a mutated tree is a
# broken gate, not a clean one. A row is (file, edit, analyzer, package); an
# edit is a list of (old, new) replacements, each old text found in the file
# and replaced once. The file is restored before the next row.
mutant_dir="$scratch/mutant"
mkdir "$mutant_dir"
tar --exclude=.git -cf - . | (cd "$mutant_dir" && tar -xf -)
python3 - "$mutant_dir" "$scratch/flatflash-lint" <<'EOF'
import subprocess, sys
root, lint = sys.argv[1], sys.argv[2]
rows = [
    # A deleted attribution End leaves the window open.
    ("internal/core/persist.go",
     [("\ts.att.End(t.clock.Now().Sub(start), s.clock.Now())\n", "")],
     "attribwindow", "./internal/core/"),
    # The mix registry returns its names in map order.
    ("internal/workload/mix.go", [("sort.Strings(out)", "_ = sort.Strings")],
     "detflow", "./internal/workload/"),
    # An allocation on the DRAM hit path.
    ("internal/dram/dram.go",
     [("func (d *DRAM) Touch(f int) (sim.Duration, error) {\n",
       "func (d *DRAM) Touch(f int) (sim.Duration, error) {\n\t_ = make([]byte, 1)\n")],
     "hotalloc", "./internal/dram/"),
    # A goroutine inside a body the sweep already runs concurrently.
    ("internal/mtsim/mtsim.go",
     [("func Run(cfg Config) (*Result, error) {\n",
       "func Run(cfg Config) (*Result, error) {\n\tgo func() {}()\n")],
     "sharedstate", "./internal/mtsim/"),
    # A wall-clock read in a paper figure.
    ("internal/experiments/fig14.go",
     [("func Fig14(scale Scale) []*Report {\n",
       "func Fig14(scale Scale) []*Report {\n\t_ = time.Now()\n")],
     "walltime", "./internal/experiments/"),
    # Process-wide randomness that no seed replays.
    ("internal/workload/mix.go",
     [('\t"fmt"\n', '\t"fmt"\n\t"math/rand"\n'),
      ("func Mixes() []string {\n", "func Mixes() []string {\n\t_ = rand.Intn(2)\n")],
     "seededrand", "./internal/workload/"),
]
for path, edit, name, pkg in rows:
    full = root + "/" + path
    orig = src = open(full).read()
    for old, new in edit:
        if old not in src:
            sys.exit("mutant smoke: %s row: %r not found in %s" % (name, old, path))
        src = src.replace(old, new, 1)
    open(full, "w").write(src)
    vet = subprocess.run(["go", "vet", pkg], cwd=root, capture_output=True, text=True)
    if vet.returncode != 0:
        sys.exit("mutant smoke: the %s mutant of %s fails go vet:\n%s" % (name, path, vet.stderr))
    res = subprocess.run([lint, "-q", "-only", name, pkg], cwd=root, capture_output=True, text=True)
    if res.returncode != 1 or "[%s]" % name not in res.stdout:
        sys.exit("mutant smoke FAILED: %s missed its mutant of %s (exit %d):\n%s%s"
                 % (name, path, res.returncode, res.stdout, res.stderr))
    open(full, "w").write(orig)
    print("mutant smoke ok (%s caught its mutant of %s)" % (name, path))
EOF
rm -rf "$mutant_dir"
# Call sites report through a possibly-nil *telemetry.Sink unguarded, so a
# detached sink is free only while Observe (and its nil check) inlines.
go build -gcflags=-m ./internal/telemetry 2>&1 | grep -q 'can inline (\*Sink).Observe' || {
    echo "inline check FAILED: (*telemetry.Sink).Observe no longer inlines"
    exit 1
}
echo "inline check ok ((*telemetry.Sink).Observe inlines)"
# The SSD-Cache shares flash's read-only page buffers until a write takes
# the entry over with Own. Strip the Own before the MMIO write's copy in a
# fresh scratch copy: the write then lands in flash's buffer, and the core
# tests must catch it. The mutant must still build, so only a test failure
# counts.
mutant_dir="$scratch/mutant"
mkdir "$mutant_dir"
tar --exclude=.git -cf - . | (cd "$mutant_dir" && tar -xf -)
python3 - "$mutant_dir/internal/core/flatflash.go" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines(keepends=True)
out, stripped = [], False
for i, l in enumerate(lines):
    if not stripped and l.strip() == "s.cach.Own(e)" and lines[i + 1].strip() == "copy(e.Data[off:off+len(w)], w)":
        stripped = True
        continue
    out.append(l)
if not stripped:
    sys.exit("mutant smoke: no Own call before the MMIO write's copy in flatflash.go")
open(path, "w").writelines(out)
EOF
(cd "$mutant_dir" && go vet ./internal/core) || {
    echo "mutant smoke FAILED: the Own-stripped mutant does not build"
    exit 1
}
if (cd "$mutant_dir" && go test -count=1 ./internal/core > "$scratch/mutant.txt" 2>&1); then
    echo "mutant smoke FAILED: core tests passed with the MMIO write's Own stripped"
    exit 1
fi
grep -q -- "--- FAIL: TestHierarchyShadowMemoryProperty" "$scratch/mutant.txt" || {
    echo "mutant smoke FAILED: the shadow-memory property missed the stripped Own:"
    cat "$scratch/mutant.txt"
    exit 1
}
rm -rf "$mutant_dir"
echo "mutant smoke ok (core tests caught the stripped Own)"

echo "== go test -race =="
go test -race ./...

echo "== go test -shuffle=on =="
# Randomized test order catches inter-test state leaks (package-level caches,
# shared tmp files) that a fixed order can hide.
go test -shuffle=on ./...

echo "== bench smoke =="
# One iteration of every benchmark: catches benchmarks that no longer build
# or crash (the allocation-budget tests ride the normal test passes above).
go test -bench=. -benchtime=1x -run='^$' ./...

echo "== fuzz smoke =="
# Short seeded-corpus-plus-mutation runs over every fuzz target in the
# tree, discovered per package so new fuzzers are picked up automatically
# instead of silently skipped. A regression in the parsers shows up here
# long before anyone runs the fuzzers by hand.
for pkg in $(go list ./...); do
    fuzzers=$(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true)
    for f in $fuzzers; do
        go test -fuzz="^${f}\$" -fuzztime=3s -run='^$' "$pkg"
    done
done

echo "== bench regression (warn-only) =="
# Diff a one-shot bench run against the latest BENCH_*.json snapshot. This is
# advisory: CI machines are too noisy for a hard ns/op gate, but the printed
# deltas make a regression visible in the log. Alloc regressions are still
# hard-gated by the AllocsPerRun tests above. Each benchmark runs for a
# 100ms budget, not a fixed iteration count: at a handful of iterations the
# first calls' warm-up decides a micro-benchmark's ns/op and allocs/op.
# The numeric sort puts an untracked BENCH_head.json (make bench) first.
latest_bench=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
if [ -n "$latest_bench" ] && ! grep -q '"Benchmark' "$latest_bench"; then
    # An empty or truncated snapshot would diff as everything-removed noise.
    echo "benchdiff: $latest_bench has no benchmarks, skipping (warn only)"
    latest_bench=""
fi
if [ -n "$latest_bench" ] && [ -x scripts/bench.sh ]; then
    if BENCHTIME=100ms ./scripts/bench.sh "$scratch/BENCH_ci.json" >/dev/null 2>&1; then
        ./scripts/benchdiff.sh "$latest_bench" "$scratch/BENCH_ci.json" || \
            echo "benchdiff: comparison failed (warn only)"
    else
        echo "benchdiff: bench run failed (warn only)"
    fi
else
    echo "benchdiff: no BENCH_*.json snapshot to compare against (warn only)"
fi

echo "== observability smoke =="
# Every entry point runs twice with the same seed and every dump flag it
# honors. The two runs must write byte-identical stdout and dumps, the
# Chrome trace must be one JSON document, and every JSONL dump must be
# non-empty and parse line by line. Each run writes relative dump names in
# its own directory, so the stdout lines naming them compare equal too.
sim="$scratch/flatflash-sim"
bench="$scratch/flatflash-bench"
go build -o "$sim" ./cmd/flatflash-sim
go build -o "$bench" ./cmd/flatflash-bench
obs_dir="$scratch/obs"
mkdir "$obs_dir"
# obs_pair NAME "DUMPS" CMD...: run CMD twice, compare, parse DUMPS.
obs_pair() {
    name=$1
    dumps=$2
    shift 2
    for run in 1 2; do
        mkdir "$obs_dir/$name.$run"
        (cd "$obs_dir/$name.$run" && "$@" > stdout) || {
            echo "observability smoke: $name exited non-zero"; exit 1; }
    done
    for f in stdout $dumps; do
        cmp "$obs_dir/$name.1/$f" "$obs_dir/$name.2/$f" || {
            echo "observability smoke: $name $f differs across same-seed runs"; exit 1; }
    done
    # shellcheck disable=SC2086 # the dump list is split on purpose
    python3 - "$obs_dir/$name.1" $dumps <<'EOF'
import json, os, sys
d = sys.argv[1]
for name in sys.argv[2:]:
    path = os.path.join(d, name)
    if os.path.getsize(path) == 0:
        sys.exit("observability smoke: %s is empty" % path)
    if name.endswith(".jsonl"):
        for n, line in enumerate(open(path), 1):
            try:
                json.loads(line)
            except ValueError as e:
                sys.exit("observability smoke: %s line %d: %s" % (path, n, e))
    else:
        json.load(open(path))
EOF
}
obs_pair sim-replay "t.json m.jsonl l.jsonl f.jsonl" "$sim" -kind flatflash -pattern zipf \
    -ops 4000 -seed 7 -slo 4us -trace-out t.json -metrics-out m.jsonl -latency-out l.jsonl -flight-out f.jsonl
grep -q "latency budget" "$obs_dir/sim-replay.1/stdout" || {
    echo "budget table missing from sim output"; exit 1; }
obs_pair sim-openloop "l.jsonl f.jsonl" "$sim" -openloop -ops 2000 -seed 7 -rate 2000000 \
    -slo 50us -shed-wait 20us -latency-out l.jsonl -flight-out f.jsonl
obs_pair bench-figures "t.json m.jsonl l.jsonl f.jsonl" "$bench" -quick -slo 4us \
    -trace-out t.json -metrics-out m.jsonl -latency-out l.jsonl -flight-out f.jsonl fig9a
obs_pair bench-consolidate "l.jsonl f.jsonl" "$bench" consolidate -tenants 1,2 -ops 200 \
    -slo 4us -latency-out l.jsonl -flight-out f.jsonl
obs_pair bench-fleet "l.jsonl f.jsonl" "$bench" fleet -shards 1,2 -rates 50000,400000 \
    -ops 800 -region 262144 -slo 400us -shed-wait 100us -latency-out l.jsonl -flight-out f.jsonl
obs_pair bench-crashsweep "f.jsonl" "$bench" crashsweep -points 6 -flight-out f.jsonl
# A flag the selected mode does not read is a usage error, not a no-op.
rc=0
"$sim" -openloop -trace-out "$obs_dir/x" > /dev/null 2>&1 || rc=$?
[ "$rc" = 2 ] || { echo "flatflash-sim -openloop -trace-out exited $rc, want 2"; exit 1; }
rm -rf "$obs_dir"
echo "observability smoke ok"

echo "== open-loop golden smoke =="
# flatflash-sim -openloop runs a one-shard fleet. One committed golden flag
# set, replayed through the real CLI, must reproduce its stdout and both
# dumps byte for byte. The golden's dump paths are relative, so the run
# happens in a scratch directory.
ol_golden="$PWD/internal/fleet/testdata/openloop"
ol_dir="$scratch/openloop"
mkdir "$ol_dir"
# shellcheck disable=SC2046 # the args file is split into flags on purpose
(cd "$ol_dir" && "$sim" $(cat "$ol_golden/obs.args") > obs.stdout)
cmp "$ol_dir/obs.stdout" "$ol_golden/obs.stdout" || {
    echo "open-loop stdout differs from the golden"; exit 1; }
cmp "$ol_dir/latency.jsonl" "$ol_golden/obs.latency.jsonl" || {
    echo "open-loop latency dump differs from the golden"; exit 1; }
cmp "$ol_dir/flight.jsonl" "$ol_golden/obs.flight.jsonl" || {
    echo "open-loop flight dump differs from the golden"; exit 1; }
rm -rf "$ol_dir"
echo "open-loop smoke ok"

echo "== fleet smoke =="
# A tiny fleet sweep must be byte-identical across runs AND across worker
# counts (the grid runs on GOMAXPROCS workers) — the fleet determinism
# contract, end to end through the real CLI.
fleet_run() {
    GOMAXPROCS="$1" "$bench" fleet -shards 1,2 -rates 50000,400000 -seeds 1 \
        -ops 800 -region 262144 -slo 400us
}
fleet_run 2 > "$scratch/fleet_run1.txt"
fleet_run 2 > "$scratch/fleet_run2.txt"
fleet_run 1 > "$scratch/fleet_seq.txt"
cmp "$scratch/fleet_run1.txt" "$scratch/fleet_run2.txt" || {
    echo "fleet reports differ across same-seed runs"; exit 1; }
cmp "$scratch/fleet_run1.txt" "$scratch/fleet_seq.txt" || {
    echo "fleet reports differ between GOMAXPROCS=2 and =1"; exit 1; }
grep -q "fleet sweep points=4" "$scratch/fleet_run1.txt" || {
    echo "fleet report missing sweep header"; exit 1; }
echo "fleet smoke ok"

echo "== parallel fan-out smoke =="
# Figure cells and the consolidate and fleet grid points fan out over
# GOMAXPROCS. Four fanned-out figures, Table 1 and the two grid
# experiments, once plain and once with the latency and flight dumps (a
# shared sink runs everything in-line), and the consolidate and fleet
# subcommands at their defaults must print the same bytes at GOMAXPROCS=1
# and =4. Each run writes its dumps under the same relative names in its
# own directory, so the stdout lines naming them compare equal too.
fanout_exps="fig10 fig11 fig13 fig14 table1 consolidate fleet"
for procs in 1 4; do
    cells_dir="$scratch/fanout_cells_$procs"
    rm -rf "$cells_dir"
    mkdir -p "$cells_dir"
    # shellcheck disable=SC2086 # the experiment list is split on purpose
    (cd "$cells_dir" &&
        GOMAXPROCS=$procs "$bench" -quick $fanout_exps > plain.txt &&
        GOMAXPROCS=$procs "$bench" -quick -slo 4us -latency-out latency.jsonl \
            -flight-out flight.jsonl $fanout_exps > obs.txt &&
        GOMAXPROCS=$procs "$bench" consolidate > consolidate.txt &&
        GOMAXPROCS=$procs "$bench" fleet > fleet.txt)
done
for f in plain.txt obs.txt latency.jsonl flight.jsonl consolidate.txt fleet.txt; do
    [ -s "$scratch/fanout_cells_1/$f" ] || { echo "fan-out smoke: $f is empty"; exit 1; }
    cmp "$scratch/fanout_cells_1/$f" "$scratch/fanout_cells_4/$f" || {
        echo "fan-out smoke: $f differs between GOMAXPROCS=1 and =4"; exit 1; }
done
echo "parallel fan-out smoke ok"

echo "== demand map smoke =="
# The demand-paged translation map must never change data results — only
# when map accesses cost time and what gets persisted. The equivalence
# properties run explicitly here (FTL-level and through the full hierarchy),
# then the CLI surface: same-seed demand-mode runs must be byte-identical
# with the map counters visible, and a demand-mode crash sweep must verify
# clean while recovering through the GTD partial-scan path on every point.
go test -count=1 -run 'TestDemandEquivalence' ./internal/ftl
go test -count=1 -run 'TestDemandModeDataEquivalence' ./internal/core
map_run() {
    "$sim" -kind flatflash -pattern zipf -ops 4000 -seed 7 -map-cache 4
}
map_run > "$scratch/map_run1.txt"
map_run > "$scratch/map_run2.txt"
cmp "$scratch/map_run1.txt" "$scratch/map_run2.txt" || {
    echo "demand-mode reports differ across same-seed runs"; exit 1; }
for counter in map_cache_hits map_cache_misses map_fetches flash_trans_programs; do
    grep -q "$counter" "$scratch/map_run1.txt" || {
        echo "demand-mode report missing $counter"; exit 1; }
done
"$sim" -kind flatflash -pattern zipf -ops 4000 -seed 7 > "$scratch/map_off.txt"
if grep -q "map_cache" "$scratch/map_off.txt"; then
    echo "default mode leaked map counters into the report"; exit 1
fi
"$bench" crashsweep -points 6 -map-cache 4 > "$scratch/map_cs.txt" || {
    echo "demand-mode crash sweep found violations"; exit 1; }
grep -q "violations=0" "$scratch/map_cs.txt" || {
    echo "demand-mode crash sweep report lacks violations=0"; exit 1; }
grep -q "gtd_partial=1" "$scratch/map_cs.txt" || {
    echo "demand-mode crash sweep never used GTD partial-scan recovery"; exit 1; }
echo "demand map smoke ok"

echo "== reachability smoke =="
# Every package linked into a CLI must be reachable from one. Coverage-
# instrumented builds of both CLIs run a quick pass of every entry point,
# and a linked package that ran not one statement fails the gate: its code
# backs no report. Packages with no statements are exempt (covdata prints
# no percentage for them).
reach_dir="$scratch/reach"
mkdir "$reach_dir"
go build -cover -o "$reach_dir/flatflash-bench" ./cmd/flatflash-bench
go build -cover -o "$reach_dir/flatflash-sim" ./cmd/flatflash-sim
mkdir "$reach_dir/cov"
(
    cd "$reach_dir"
    export GOCOVERDIR="$reach_dir/cov"
    ./flatflash-bench -quick > /dev/null
    ./flatflash-bench crashsweep -points 6 > /dev/null
    ./flatflash-bench consolidate > /dev/null
    ./flatflash-bench fleet -shards 1,2 -rates 50000,400000 -ops 800 -region 262144 -slo 400us > /dev/null
    ./flatflash-sim -ops 4000 > /dev/null
    ./flatflash-sim -openloop -ops 4000 > /dev/null
)
go tool covdata percent -i="$reach_dir/cov" > "$reach_dir/percent.txt"
python3 - "$reach_dir/percent.txt" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
pcts = re.findall(r"(\S+)\s+coverage: ([0-9.]+)% of statements", text)
if not pcts:
    sys.exit("reachability smoke: no coverage figures in:\n" + text)
dead = [pkg for pkg, pct in pcts if float(pct) == 0]
if dead:
    sys.exit("reachability smoke FAILED: no entry point runs a statement of:\n  " + "\n  ".join(dead))
low = min(pcts, key=lambda p: float(p[1]))
print("reachability smoke ok (%d packages reached; lowest %s at %s%%)" % (len(pcts), low[0], low[1]))
EOF
rm -rf "$reach_dir"

echo "== coverage floors =="
# Safety-critical packages keep a per-package statement-coverage floor: the
# fault engine guards crash consistency, and the analyzer suite guards every
# other invariant, so silent coverage rot there is disproportionately risky.
cover_floor() {
    pkg=$1
    floor=$2
    cover=$(go test -cover "$pkg" | awk '{for (i=1;i<=NF;i++) if ($i=="coverage:") {sub(/%$/,"",$(i+1)); print $(i+1)}}')
    if [ -z "$cover" ]; then
        echo "could not read coverage for $pkg"
        exit 1
    fi
    if [ "$(printf '%s\n' "$cover" | awk -v f="$floor" '{print ($1 < f) ? 1 : 0}')" = "1" ]; then
        echo "$pkg coverage ${cover}% below ${floor}% floor"
        exit 1
    fi
    echo "$pkg coverage ${cover}% (floor ${floor}%)"
}
cover_floor ./internal/fault 80
cover_floor ./internal/analyzers 80
# The CFG builder underlies the flow-sensitive analyzers; an unmodeled edge
# there is a false negative in every one of them.
cover_floor ./internal/analyzers/cfg 80
# The observability layer (attribution engine, flight recorder, shared CLI
# flags) is how regressions elsewhere get diagnosed, so it keeps a floor too.
cover_floor ./internal/telemetry 80
cover_floor ./internal/obsflags 80
# The fleet front end (sharding, admission control, migration) and the
# open-loop arrival generator gate the scale-out results, so they keep
# floors as well.
cover_floor ./internal/fleet 80
cover_floor ./internal/workload 80
# The demand-paged translation map sits under every demand-mode result and
# its replacement/GTD bookkeeping is pure policy code — cheap to cover, and
# costly to get wrong silently.
cover_floor ./internal/mapcache 80

echo "ci: all green"
