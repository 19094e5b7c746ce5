package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flatflash/internal/core"
)

func parseArgs(args ...string) (*options, error) {
	fs := flag.NewFlagSet("flatflash-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, args)
}

// Every committed open-loop golden flag set and every flatflash-sim command
// line the CI script runs must still parse.
func TestParseAcceptsGoldenAndCIArgs(t *testing.T) {
	goldens, err := filepath.Glob("../../internal/fleet/testdata/openloop/*.args")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no open-loop goldens found (%v)", err)
	}
	var lines []string
	for _, g := range goldens {
		data, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	lines = append(lines,
		"-kind flatflash -pattern zipf -ops 4000 -seed 7 -slo 4us -latency-out l.jsonl -flight-out f.jsonl",
		"-kind flatflash -pattern zipf -ops 4000 -seed 7 -map-cache 4",
		"-ops 4000 -seed 7 -slo 4us -trace-out t.json -metrics-out m.jsonl -metrics-epoch 100us -latency-out l.jsonl -flight-out f.jsonl",
		"-ops 4000",
		"-openloop -ops 4000",
		"-openloop -ops 2000 -seed 7 -slo 200us -latency-out l.jsonl -flight-out f.jsonl -map-cache 4",
	)
	for _, line := range lines {
		o, err := parseArgs(strings.Fields(line)...)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		if o.openloop != strings.Contains(line, "-openloop") {
			t.Errorf("%q: openloop = %v", line, o.openloop)
		}
	}
}

// A flag only the other mode reads is a usage error in either direction,
// even when it is set to its default value, and so is a stray argument.
func TestParseRejectsFlagsTheModeDoesNotRead(t *testing.T) {
	fs := flag.NewFlagSet("flatflash-sim", flag.ContinueOnError)
	if _, err := parse(fs, nil); err != nil {
		t.Fatal(err)
	}
	for _, openloop := range []bool{false, true} {
		for _, name := range modeOnly[!openloop] {
			f := fs.Lookup(name)
			if f == nil {
				t.Fatalf("modeOnly names -%s, which is not a flag", name)
			}
			args := []string{"-" + name + "=" + f.DefValue}
			if openloop {
				args = append(args, "-openloop")
			}
			if _, err := parseArgs(args...); err == nil || !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("%q accepted (err %v)", args, err)
			}
		}
	}
	for _, args := range [][]string{
		{"-ops", "300", "stray"},
		{"-openloop", "-trace-out", "x"},
		{"-ops", "300", "-mix", "bogus", "-rate", "5"},
		{"-openloop", "-fault-plan", "missing.plan"},
	} {
		if _, err := parseArgs(args...); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// The flags both modes read are accepted in both.
func TestParseSharedFlagsInBothModes(t *testing.T) {
	shared := []string{"-ssd", "64MB", "-dram", "1MB", "-wss", "1MB", "-ops", "10", "-seed", "3",
		"-latency-out", "l.jsonl", "-flight-out", "f.jsonl", "-slo", "4us", "-map-cache", "2"}
	for _, mode := range [][]string{nil, {"-openloop"}} {
		o, err := parseArgs(append(mode, shared...)...)
		if err != nil {
			t.Fatalf("%q: %v", mode, err)
		}
		if o.ops != 10 || o.seed != 3 || o.obs.MapCache != 2 || o.obs.LatencyOut != "l.jsonl" {
			t.Errorf("%q: parsed %+v, obs %+v", mode, o, o.obs)
		}
	}
}

// Each -kind alias builds the hierarchy it names.
func TestKindAliases(t *testing.T) {
	for alias, name := range kindAliases {
		h, err := core.New(name, core.DefaultConfig(16<<20, 1<<20))
		if err != nil {
			t.Fatalf("-kind %s: %v", alias, err)
		}
		if h.Name() != name || alias != strings.ToLower(alias) {
			t.Errorf("-kind %s built %s, want %s", alias, h.Name(), name)
		}
	}
}
