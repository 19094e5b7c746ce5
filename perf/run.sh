#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags. Run it from the root of the checkout:
#
#   bash perf/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#   bash perf/run.sh -reps 5 -out set.json      # one round-robin set
#   bash perf/run.sh -compare old.json new.json
#
# The Go build cache, the binary, profiles and span rings stay inside the
# checkout (under $CARGO_TARGET_DIR, default .bench_build, and perf-trace/).
# The build never reaches the network: the only dependency is the simulator
# one directory up, so a copy of perf/ without it fails to build.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its telemetry and env file under the user config
# directory; point it into the build directory so nothing lands outside.
export XDG_CONFIG_HOME="$out/config"
export PPROF_TMPDIR="$out/pprof"

go -C perf build -o "$out/perf" .
exec "$out/perf" "$@"
