# Tier-1 verification gate (see ROADMAP.md). `make ci` is what every PR
# must keep green; the individual targets exist for quick local runs.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: ci fmt vet lint lint-fix build test race bench profile fuzz crashsweep golden

ci:
	./scripts/ci.sh

# Static enforcement of determinism / virtual-time / hot-path invariants
# (walltime, seededrand, hotalloc, sharedstate, attribwindow, detflow —
# see the analyzer catalog in DESIGN.md).
lint:
	go run ./cmd/flatflash-lint ./...

# Apply the suggested fixes (attribwindow Abandon insertion, detflow
# sorted-walk rewrite), then verify the rewrites are gofmt-clean. A second
# run proposes nothing: every fix removes the diagnostic that suggested it.
lint-fix:
	go run ./cmd/flatflash-lint -fix ./...
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then echo "lint-fix left unformatted files:"; echo "$$out"; exit 1; fi

fmt:
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	./scripts/bench.sh BENCH_head.json

# Per-layer host CPU table of `flatflash-bench -quick` (pprof flat time
# folded by internal/<pkg>; outputs in .profile/).
profile:
	./scripts/profile.sh

fuzz:
	go test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/trace
	go test -fuzz=FuzzFaultPlan -fuzztime=10s -run=^$$ ./internal/fault
	go test -fuzz=FuzzArrivalGen -fuzztime=10s -run=^$$ ./internal/workload

crashsweep:
	go run ./cmd/flatflash-bench crashsweep -points 60

# Rewrite the committed goldens (fleet engine fixture, Quick-scale paper
# reports) from the current code. For intentional model changes only: a
# refactor or optimisation must pass against the goldens as they are.
golden:
	go test ./internal/fleet -run TestEngineGolden -update
	go test ./internal/experiments -run TestQuickReportsGolden -update
