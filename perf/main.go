// Command perf is the repository's benchmark. It drives the simulator's
// public APIs — core.FlatFlash, fleet.Run, experiments.Run — with five named
// workloads and reports what a user of the simulator pays: host set-up time,
// host operations per second and peak memory. A traced run reports the same
// work layer by layer: host self time per package from a CPU profile, host
// spans around the benchmark's own calls, timed probes into each layer's
// exported functions, and the model's own counts and latency budget.
//
// One run of one workload:
//
//	perf --workload hot-zipf --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the set runner
// (-reps) and the comparison of two sets (-compare).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"flatflash/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload once; empty runs a round-robin set of all of them")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 15, "measured host seconds per run")
	traced := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	reps := fs.Int("reps", 5, "set: measured runs per workload")
	out := fs.String("out", "perf-set.json", "set: where to write the set's JSON")
	compare := fs.Bool("compare", false, "compare two set files given as arguments, against the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare needs two set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perf: unexpected arguments %q\n", fs.Args())
		return 2
	case *seconds < 1 || *traced < 0 || *traced > 1 || *reps < 1:
		fmt.Fprintln(stderr, "perf: -seconds and -reps must be positive and -trace 0 or 1")
		return 2
	case *name == "":
		err = runSet(*seed, *seconds, *reps, *out, stdout, stderr)
	default:
		var w workloadDef
		if w, err = find(registry(false), *name); err != nil {
			break
		}
		var r *runResult
		if *traced == 1 {
			r, err = tracedRun(w, *seed, float64(*seconds))
		} else {
			r, err = measuredRun(w, *seed, float64(*seconds))
		}
		if err == nil {
			return r.print(stdout, *traced == 1)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees. ops_per_ref is
// host throughput in machine-independent units: operations per run of the
// reference kernel (see refKernel), so a set taken on a busier or slower
// machine still compares.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_ref", "ops/ref"},
	{"max_rss_mb", "MiB"},
}

// perLayer returns the traced run's metrics, in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".host_ns_per_op", "ns"})
	}
	for _, op := range []string{"read", "write", "persist"} {
		for _, q := range []string{"p50", "p999"} {
			out = append(out, metricDef{"core." + op + "_" + q + "_ns", "ns"})
		}
	}
	for _, id := range experiments.IDs() {
		out = append(out, metricDef{"experiments." + id + "_s", "s"})
	}
	out = append(out,
		metricDef{"trace_overhead_pct", "%"},
		metricDef{"host.ops_per_s", "1/s"},
		metricDef{"host.ref_per_s", "1/s"},
	)
	for _, p := range probes {
		unit := "ns"
		if strings.HasSuffix(p.name, "_x") {
			unit = "x"
		}
		out = append(out, metricDef{p.name, unit})
	}
	for _, name := range countNames {
		out = append(out, metricDef{name, countUnit(name)})
	}
	for _, c := range components() {
		out = append(out, metricDef{"attrib." + c.String() + "_ns_per_op", "sim_ns/op"})
	}
	return append(out,
		metricDef{"sim.virt_mean_ns", "sim_ns"},
		metricDef{"sim.virt_p99_ns", "sim_ns"},
		metricDef{"sim.virt_ops_per_s", "1/sim_s"},
		metricDef{"fleet.shed_rate", "ratio"},
	)
}

// countNames are the model counts and host allocation counts of a traced run.
var countNames = []string{
	"vm.tlb_miss_ratio", "dram.accesses_per_op", "promote.promotions_per_kop", "plb.redirects_per_kop",
	"ssdcache.hit_ratio", "ssdcache.dirty_evictions_per_kop", "pcie.mmio_per_op", "pcie.bytes_per_op",
	"flash.reads_per_kop", "flash.programs_per_kop", "flash.erases_per_kop",
	"ftl.write_amp", "ftl.gc_relocations_per_kop",
	"mapcache.miss_ratio", "mapcache.fetches_per_kop", "core.persist_lines_per_kop",
	"mtsim.wait_p99_ns", "mtsim.qdepth_max",
	"host.allocs_per_op", "host.alloc_bytes_per_op", "gc.cycles_per_kop",
}

func countUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_amp"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_per_op"):
		return "count/op"
	case strings.HasSuffix(name, "_per_kop"):
		return "count/kop"
	case strings.HasSuffix(name, "_ns"):
		return "sim_ns"
	}
	return "count"
}

// runResult is one run's outcome.
type runResult struct {
	attempted, failed int64
	metrics           map[string]float64
	detail            detail
}

// detail is printed before the result line: what a set needs beyond the
// metrics to check runs against each other.
type detail struct {
	Workload    string    `json:"workload"`
	Seed        uint64    `json:"seed"`
	GenS        float64   `json:"gen_s"`
	SetupS      []float64 `json:"setup_s"`
	Batches     int       `json:"batches"`
	OpsPerS     float64   `json:"ops_per_s"`
	RefPerS     float64   `json:"ref_per_s"`
	PassOps     int64     `json:"pass_ops"`
	SimDigest   string    `json:"sim_digest"`
	VirtMeanNS  float64   `json:"virt_mean_ns"`
	VirtP99NS   float64   `json:"virt_p99_ns"`
	VirtOpsPerS float64   `json:"virt_ops_per_s"`
	ShedRate    float64   `json:"shed_rate"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go"`
}

const detailPrefix = "detail "

func newDetail(w workloadDef, seed uint64, gen float64, p *passResult) detail {
	return detail{
		Workload: w.name, Seed: seed, GenS: gen,
		PassOps: p.ops, SimDigest: fmt.Sprintf("%016x", p.digest),
		VirtMeanNS: p.virtMean, VirtP99NS: p.virtP99, VirtOpsPerS: p.virtOpsPerS, ShedRate: p.shedRate,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// print writes the detail line and the result line, and returns the exit
// code: 0 when every operation and check passed.
func (r *runResult) print(w io.Writer, traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	det, err := json.Marshal(r.detail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s%s\n%s\n", detailPrefix, det, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// build generates the seed's inputs and builds the workload setupReps times,
// returning the last instance and each build's host seconds.
func build(w workloadDef, seed uint64, reps int) (in instance, gen float64, setups []float64, err error) {
	t := now()
	setup := w.prepare(seed)
	gen = since(t)
	for k := 0; k < reps; k++ {
		in = nil
		settle()
		t := now()
		if in, err = setup(); err != nil {
			return nil, 0, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, since(t))
	}
	return in, gen, setups, nil
}

// measuredRun is the untraced run that reports the end-to-end metrics.
func measuredRun(w workloadDef, seed uint64, seconds float64) (*runResult, error) {
	ref := newRefKernel(refEntries)
	in, gen, setups, err := build(w, seed, setupReps)
	if err != nil {
		return nil, err
	}
	win := measure(in, seconds, ref)
	r := &runResult{
		attempted: win.ops,
		failed:    in.failures(),
		metrics: map[string]float64{
			"setup_s":     median(setups),
			"ops_per_ref": median(win.norm),
			"max_rss_mb":  maxRSSMiB(),
		},
		detail: newDetail(w, seed, gen, in.pass()),
	}
	r.detail.SetupS, r.detail.Batches = setups, len(win.rates)
	r.detail.OpsPerS, r.detail.RefPerS = median(win.rates), median(win.refs)
	return r, nil
}

// tracedRun reports the per-layer metrics. Its first half runs the workload
// untraced under the CPU profiler; its second half rebuilds the workload and
// runs it with host spans around every call into the program and the
// simulator's latency attribution on. Both halves must compute the same
// pass digest: observability may not change the model. Then every layer
// probe runs, and the profile is folded by layer.
func tracedRun(w workloadDef, seed uint64, seconds float64) (*runResult, error) {
	half := seconds / 2
	ref := newRefKernel(refEntries)
	in, gen, _, err := build(w, seed, 1)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(traceDir, w.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	winA := measure(in, half, ref)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err := prof.Close(); err != nil {
		return nil, err
	}
	passA, failed := in.pass(), in.failures()

	in, _, _, err = build(w, seed, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	in.traceWith(tr)
	winB := measure(in, half, ref)
	passB := in.pass()
	failed += in.failures()
	if passA.digest != passB.digest {
		failed++
		fmt.Fprintf(os.Stderr, "perf: %s: traced pass digest %016x, untraced %016x\n", w.name, passB.digest, passA.digest)
	}

	m := make(map[string]float64)
	for _, p := range probes {
		v, err := p.run(seed)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perf: probe %s: %v\n", p.name, err)
		}
		m[p.name] = v
	}
	folded, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	opsA := float64(winA.ops)
	for layer, ns := range folded {
		m[layer+".host_ns_per_op"] = float64(ns) / opsA
	}
	for _, op := range []string{spanRead, spanWrite, spanPersist} {
		if h := tr.hist(op); h != nil {
			m[op+"_p50_ns"] = float64(h.Percentile(50))
			m[op+"_p999_ns"] = float64(h.Percentile(99.9))
		}
	}
	for id, s := range passA.expSeconds {
		m["experiments."+id+"_s"] = s
	}
	m["trace_overhead_pct"] = 100 * (median(winA.norm)/median(winB.norm) - 1)
	m["host.ops_per_s"] = median(winA.rates)
	m["host.ref_per_s"] = median(winA.refs)
	m["host.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / opsA
	m["host.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / opsA
	m["gc.cycles_per_kop"] = float64(m1.NumGC-m0.NumGC) / (opsA / 1000)
	// The model outcome is taken from the traced half, whose attribution
	// engine was on; the digest check above proves it equals the untraced one.
	for k, v := range passB.counts {
		m[k] = v
	}
	for k, v := range passB.attrib {
		m[k] = v
	}
	m["sim.virt_mean_ns"] = passB.virtMean
	m["sim.virt_p99_ns"] = passB.virtP99
	m["sim.virt_ops_per_s"] = passB.virtOpsPerS
	m["fleet.shed_rate"] = passB.shedRate

	if err := tr.writeRingFile(w.name); err != nil {
		return nil, err
	}
	r := &runResult{attempted: winA.ops + winB.ops, failed: failed, metrics: m, detail: newDetail(w, seed, gen, passB)}
	r.detail.Batches = len(winA.rates) + len(winB.rates)
	return r, nil
}

// foldProfile folds a CPU profile by layer with `go tool pprof -traces`.
func foldProfile(path string) (map[string]int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return foldTraces(bytes.NewReader(out))
}
