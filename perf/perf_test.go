package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runTiny builds one tiny workload, optionally traced, runs its fixed pass
// and returns the pass.
func runTiny(t *testing.T, w workloadDef, traced bool) *passResult {
	t.Helper()
	in, _, _, err := build(w, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		in.traceWith(newTracer())
	}
	win := measure(in, 0, newRefKernel(1<<10))
	if win.ops == 0 || !in.passDone() {
		t.Fatalf("%s: pass not done after %d ops", w.name, win.ops)
	}
	if n := in.failures(); n != 0 {
		t.Fatalf("%s: %d failed operations or checks", w.name, n)
	}
	return in.pass()
}

// Every workload runs clean at a tiny size; its pass digest repeats across
// two builds, and tracing plus attribution leave it unchanged.
func TestWorkloadsDeterministicAndTraceNeutral(t *testing.T) {
	for _, w := range registry(true) {
		t.Run(w.name, func(t *testing.T) {
			a := runTiny(t, w, false)
			b := runTiny(t, w, false)
			c := runTiny(t, w, true)
			if a.digest != b.digest {
				t.Errorf("digest %016x then %016x across two untraced runs", a.digest, b.digest)
			}
			if c.digest != a.digest {
				t.Errorf("traced digest %016x, untraced %016x", c.digest, a.digest)
			}
			if c.attrib == nil {
				t.Errorf("traced pass has no attribution budget")
			}
		})
	}
}

// A pass's digest covers the seed: another seed's inputs give another one.
func TestDigestDependsOnSeed(t *testing.T) {
	w, err := find(registry(true), "gups-random")
	if err != nil {
		t.Fatal(err)
	}
	a := runTiny(t, w, false)
	in, err := w.prepare(8)()
	if err != nil {
		t.Fatal(err)
	}
	measure(in, 0, newRefKernel(1<<10))
	if in.pass().digest == a.digest {
		t.Errorf("seeds 7 and 8 give the same digest %016x", a.digest)
	}
}

func TestFoldTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"ssdcache":    20e6,  // allocation under Insert is charged to its caller
		"fault":       10e6,  // an internal leaf frame
		"gc":          10e6,  // background sweep: no simulator or benchmark frame
		"flash":       100e6, // memmove under the device's program
		"perf":        30e6,  // the benchmark's own shadow compare
		"vm":          40e6,  // an inlined frame
		"experiments": 20e6,  // an unlisted internal package falls through to its caller
		"sim":         250e3, // microsecond sample values
	}
	if len(got) != len(want) {
		t.Errorf("folded layers %v, want %v", got, want)
	}
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("%s: %d ns, want %d", layer, got[layer], ns)
		}
	}
}

func TestFoldTracesRejectsGarbage(t *testing.T) {
	if _, err := foldTraces(strings.NewReader("File: x\nno samples here\n")); err == nil {
		t.Error("no error for output without samples")
	}
	bad := "-----------+----\n      10parsecs   main.main\n"
	if _, err := foldTraces(strings.NewReader(bad)); err == nil {
		t.Error("no error for an unparsable sample value")
	}
}

// BENCHMARK.json and the runner agree on every workload and metric.
func TestBenchmarkDefinitionMatchesRunner(t *testing.T) {
	var def struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range registry(false) {
		ws = append(ws, w.name+": "+w.why)
	}
	var bws []string
	for _, w := range def.Workloads {
		bws = append(bws, w.Name+": "+w.Why)
	}
	if strings.Join(ws, "\n") != strings.Join(bws, "\n") {
		t.Errorf("BENCHMARK.json workloads\n%s\nrunner workloads\n%s", strings.Join(bws, "\n"), strings.Join(ws, "\n"))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the runner %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], runner %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !valid.MatchString(d.name) {
				t.Errorf("%s: invalid metric name %q", kind, d.name)
			}
		}
	}
	var names, units []string
	for _, m := range def.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range def.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer(), names, units)
}

// The result line carries exactly the metrics of its kind, and a failed
// check makes the run incorrect and its exit status non-zero.
func TestResultLine(t *testing.T) {
	for _, tc := range []struct {
		traced bool
		failed int64
		code   int
	}{{false, 0, 0}, {true, 0, 0}, {false, 1, 1}} {
		var buf bytes.Buffer
		r := &runResult{attempted: 10, failed: tc.failed, metrics: map[string]float64{"setup_s": 0.5}}
		if code := r.print(&buf, tc.traced); code != tc.code {
			t.Errorf("traced=%t failed=%d: exit %d, want %d", tc.traced, tc.failed, code, tc.code)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int64                      `json:"attempted"`
			Failed    int64                      `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if tc.traced {
			defs = perLayer()
		}
		if len(res.Metrics) != len(defs) || res.Correct != (tc.failed == 0) || res.Attempted != 10 {
			t.Errorf("traced=%t: %d metrics (want %d), correct=%t attempted=%d", tc.traced, len(res.Metrics), len(defs), res.Correct, res.Attempted)
		}
	}
}

// quartiles follows Python's statistics.quantiles(n=4), the spread the
// benchmark's stability is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(xs ...float64) *summary { return summarize("s", xs) }
	steady := s(100, 101, 99, 100, 100)
	for _, tc := range []struct {
		name   string
		cur    *summary
		higher bool
		want   string
	}{
		{"same", s(100, 100, 101, 99, 100), false, "unchanged"},
		{"slower", s(130, 131, 129, 130, 130), false, "worse"},
		{"faster", s(70, 71, 69, 70, 70), false, "better"},
		{"throughput up", s(130, 131, 129, 130, 130), true, "better"},
		{"noisy", s(60, 100, 140, 80, 120), false, "unresolved"},
	} {
		if _, v := verdict(steady, tc.cur, tc.higher, 0.1); v != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, v, tc.want)
		}
	}
}

// writeSet writes a one-workload set file whose ops_per_ref runs are xs.
func writeSet(t *testing.T, dir, name, cpu string, xs ...float64) string {
	t.Helper()
	set := setFile{
		Meta: meta{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, Go: "go1.24.0"},
		Workloads: map[string]*setWorkload{"gups-random": {
			Correct:  true,
			Digests:  []string{"00"},
			EndToEnd: map[string]*summary{"ops_per_ref": summarize("ops/ref", xs)},
		}},
	}
	buf, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/" + name
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// -compare judges against the BENCHMARK.json bound and refuses to judge sets
// from different machines.
func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	old := writeSet(t, dir, "old.json", "cpu A", 100, 101, 99, 100, 100)
	for _, tc := range []struct {
		name string
		cur  string
		code int
		want string
	}{
		{"unchanged", writeSet(t, dir, "same.json", "cpu A", 99, 100, 101, 100, 100), 0, "unchanged"},
		{"worse", writeSet(t, dir, "slow.json", "cpu A", 60, 61, 59, 60, 60), 1, "worse"},
		{"other machine", writeSet(t, dir, "other.json", "cpu B", 100, 100, 100, 100, 100), 2, "refusing"},
	} {
		var out, errOut bytes.Buffer
		code := compareSets(old, tc.cur, "../BENCHMARK.json", &out, &errOut)
		if code != tc.code || !strings.Contains(out.String()+errOut.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d; output:\n%s%s", tc.name, code, tc.code, out.String(), errOut.String())
		}
	}
}
