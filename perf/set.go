package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setFile is the JSON a set writes: every run's end-to-end values summarized
// per workload, one traced run's per-layer values, and the fingerprint of
// the machine and revision that produced them.
type setFile struct {
	Meta      meta                    `json:"meta"`
	Workloads map[string]*setWorkload `json:"workloads"`
}

type meta struct {
	CPU        string             `json:"cpu"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Go         string             `json:"go"`
	Rev        string             `json:"rev"`
	Dirty      bool               `json:"dirty"`
	Seed       uint64             `json:"seed"`
	Reps       int                `json:"reps"`
	Seconds    int                `json:"seconds"`
	PassOps    map[string]int64   `json:"pass_ops"`
	GenS       map[string]float64 `json:"gen_s"`
}

// fingerprint is what two sets must share for their host times to compare.
func (m meta) fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", m.CPU, m.NumCPU, m.GOMAXPROCS, m.Go)
}

type setWorkload struct {
	Correct  bool                `json:"correct"`
	Digests  []string            `json:"sim_digests"`
	Sim      map[string]float64  `json:"sim"`
	EndToEnd map[string]*summary `json:"end_to_end"`
	PerLayer map[string]float64  `json:"per_layer"`
}

// summary is one metric across a set's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func summarize(unit string, xs []float64) *summary {
	s := &summary{Unit: unit, Values: xs, Median: median(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	s.Q1, s.Q3 = quartiles(xs)
	for _, x := range xs {
		s.Min, s.Max = math.Min(s.Min, x), math.Max(s.Max, x)
	}
	return s
}

// childResult is one child run's two output lines.
type childResult struct {
	detail  detail
	correct bool
	metrics map[string]float64
}

// runChild runs this binary on one workload in a fresh process, so each run
// starts with a clean heap and its own peak RSS.
func runChild(self, name string, seed uint64, seconds int, traced bool, stderr io.Writer) (*childResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", tr)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if len(out) == 0 && err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: want a detail and a result line, got %q", name, out)
	}
	var r childResult
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], detailPrefix)), &r.detail); err != nil {
		return nil, fmt.Errorf("%s: detail line: %w", name, err)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	r.correct = res.Correct
	r.metrics = make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return &r, nil
}

// runSet runs reps measured runs of every workload, round-robin so machine
// drift hits each workload alike, then one traced run of each. Every run of
// a workload must compute the same pass digest.
func runSet(seed uint64, seconds, reps int, outPath string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ws := registry(false)
	set := setFile{Meta: machine(), Workloads: make(map[string]*setWorkload)}
	set.Meta.Seed, set.Meta.Reps, set.Meta.Seconds = seed, reps, seconds
	set.Meta.PassOps, set.Meta.GenS = make(map[string]int64), make(map[string]float64)
	values := make(map[string]map[string][]float64)
	for _, w := range ws {
		set.Workloads[w.name] = &setWorkload{Correct: true, EndToEnd: make(map[string]*summary)}
		values[w.name] = make(map[string][]float64)
	}
	for rep := 0; rep < reps; rep++ {
		for _, w := range ws {
			fmt.Fprintf(stderr, "perf: rep %d/%d %s\n", rep+1, reps, w.name)
			r, err := runChild(self, w.name, seed, seconds, false, stderr)
			if err != nil {
				return err
			}
			sw := set.Workloads[w.name]
			sw.Correct = sw.Correct && r.correct && (len(sw.Digests) == 0 || sw.Digests[0] == r.detail.SimDigest)
			sw.Digests = append(sw.Digests, r.detail.SimDigest)
			sw.Sim = map[string]float64{
				"virt_mean_ns": r.detail.VirtMeanNS, "virt_p99_ns": r.detail.VirtP99NS,
				"virt_ops_per_s": r.detail.VirtOpsPerS, "shed_rate": r.detail.ShedRate,
			}
			set.Meta.PassOps[w.name], set.Meta.GenS[w.name] = r.detail.PassOps, r.detail.GenS
			for k, v := range r.metrics {
				values[w.name][k] = append(values[w.name][k], v)
			}
		}
	}
	for _, w := range ws {
		fmt.Fprintf(stderr, "perf: traced %s\n", w.name)
		r, err := runChild(self, w.name, seed, seconds, true, stderr)
		if err != nil {
			return err
		}
		sw := set.Workloads[w.name]
		sw.Correct = sw.Correct && r.correct && r.detail.SimDigest == sw.Digests[0]
		sw.PerLayer = r.metrics
		for _, d := range endToEnd {
			sw.EndToEnd[d.name] = summarize(d.unit, values[w.name][d.name])
		}
	}
	buf, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	printSet(stdout, &set)
	for _, w := range ws {
		if !set.Workloads[w.name].Correct {
			return fmt.Errorf("%s: a run failed or runs disagree on the sim digest %v", w.name, set.Workloads[w.name].Digests)
		}
	}
	return nil
}

// printSet prints every end-to-end median with its unit, per workload.
func printSet(w io.Writer, set *setFile) {
	fmt.Fprintf(w, "%s rev=%s dirty=%t reps=%d seconds=%d\n", set.Meta.fingerprint(), set.Meta.Rev, set.Meta.Dirty, set.Meta.Reps, set.Meta.Seconds)
	for _, name := range sortedKeys(set.Workloads) {
		sw := set.Workloads[name]
		for _, d := range endToEnd {
			s := sw.EndToEnd[d.name]
			fmt.Fprintf(w, "%-15s %-11s %14.6g %-7s [q1 %.6g q3 %.6g]\n", name, d.name, s.Median, d.unit, s.Q1, s.Q3)
		}
		fmt.Fprintf(w, "%-15s sim_digest  %s  correct=%t\n", name, sw.Digests[0], sw.Correct)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// machine fingerprints the host and the revision under test.
func machine() meta {
	m := meta{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Rev: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Rev = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		m.Dirty = err != nil || len(bytes.TrimSpace(st)) > 0
	}
	return m
}

// benchDef is the part of BENCHMARK.json a comparison needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one metric between two sets against its bound: worse or
// better when the medians differ by more than the bound, unchanged when they
// do not, and unresolved when either set's quartile spread exceeds the bound
// — unless every new run beats every old one.
func verdict(old, cur *summary, higherIsBetter bool, bound float64) (delta float64, v string) {
	delta = (cur.Median - old.Median) / old.Median
	worse := delta
	if higherIsBetter {
		worse = -delta
	}
	spread := math.Max((old.Q3-old.Q1)/old.Median, (cur.Q3-cur.Q1)/cur.Median)
	allBetter := cur.Min > old.Max
	if !higherIsBetter {
		allBetter = cur.Max < old.Min
	}
	switch {
	case spread > bound && allBetter:
		return delta, "better"
	case spread > bound:
		return delta, "unresolved"
	case worse > bound:
		return delta, "worse"
	case -worse > bound:
		return delta, "better"
	}
	return delta, "unchanged"
}

// compareSets prints, per workload and end-to-end metric, each set's median
// and quartiles, the delta and a verdict against the BENCHMARK.json bound.
// It refuses when the sets come from different machines or toolchains.
// Exit status: 0 nothing worse, 1 something worse, 2 refused or unreadable.
func compareSets(oldPath, newPath, benchPath string, stdout, stderr io.Writer) int {
	var old, cur setFile
	var bench benchDef
	for _, f := range []struct {
		path string
		v    any
	}{{oldPath, &old}, {newPath, &cur}, {benchPath, &bench}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 2
		}
	}
	if old.Meta.fingerprint() != cur.Meta.fingerprint() {
		fmt.Fprintf(stderr, "perf: refusing a verdict: the sets come from different machines\n  old: %s\n  new: %s\n",
			old.Meta.fingerprint(), cur.Meta.fingerprint())
		return 2
	}
	fmt.Fprintf(stdout, "%s\nold rev=%s dirty=%t  new rev=%s dirty=%t\n", cur.Meta.fingerprint(), old.Meta.Rev, old.Meta.Dirty, cur.Meta.Rev, cur.Meta.Dirty)
	fmt.Fprintf(stdout, "%-15s %-11s %32s %32s %8s  %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "delta", "verdict")
	code := 0
	for _, name := range sortedKeys(cur.Workloads) {
		ow, ok := old.Workloads[name]
		if !ok {
			continue
		}
		for _, m := range bench.EndToEnd {
			o, c := ow.EndToEnd[m.Name], cur.Workloads[name].EndToEnd[m.Name]
			if o == nil || c == nil || o.Median == 0 || c.Median == 0 {
				continue
			}
			delta, v := verdict(o, c, m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-11s %32s %32s %+7.1f%%  %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", o.Median, o.Q1, o.Q3),
				fmt.Sprintf("%.4g [%.4g %.4g]", c.Median, c.Q1, c.Q3), 100*delta, v)
		}
		if old.Meta.Seed == cur.Meta.Seed && ow.Digests[0] != cur.Workloads[name].Digests[0] {
			fmt.Fprintf(stdout, "%-15s sim_digest changed: %s -> %s (the model changed)\n", name, ow.Digests[0], cur.Workloads[name].Digests[0])
		}
	}
	return code
}
