package main

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"testing"

	"flatflash/internal/obsflags"
)

// Grid values must parse whole: a token with trailing junk, an empty token
// or a negative seed is an error, never a silently truncated value.
func TestParseGridLists(t *testing.T) {
	for _, tc := range []struct {
		name    string
		parse   func(string) (any, error)
		csv     string
		want    any
		wantErr bool
	}{
		{"ints", ints, "1, 2,4", []int{1, 2, 4}, false},
		{"ints trailing junk", ints, "2x", nil, true},
		{"ints empty token", ints, "1,,4", nil, true},
		{"floats", floats, "50000,5e5, 2000000", []float64{50000, 500000, 2000000}, false},
		{"floats trailing junk", floats, "5e4junk", nil, true},
		{"floats empty list", floats, "", nil, true},
		{"uints", uints, "1,2", []uint64{1, 2}, false},
		{"uints negative seed", uints, "-1", nil, true},
		{"uints trailing junk", uints, "3s", nil, true},
	} {
		got, err := tc.parse(tc.csv)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: %q parsed as %v, want an error", tc.name, tc.csv, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %q = %v, %v; want %v", tc.name, tc.csv, got, err, tc.want)
		}
	}
}

func ints(csv string) (any, error)   { return parseInts(csv) }
func floats(csv string) (any, error) { return parseFloats(csv) }
func uints(csv string) (any, error)  { return parseUints(csv) }

// The crashsweep subcommand rejects what its siblings reject: a stray
// positional argument or a workload the sweep does not know is a usage
// error, caught before any crash point runs.
func TestParseCrashsweepRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-points", "2", "stray-arg"},
		{"-workloads", "fsim,bogus"},
		{"-fault-plan", t.TempDir() + "/missing.plan"},
		{"-slo", "4us"}, // the sweep reads no SLO
	} {
		fs := flag.NewFlagSet("crashsweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, _, err := parseCrashsweep(fs, args); err == nil {
			t.Errorf("crashsweep %q accepted", args)
		}
	}
	fs := flag.NewFlagSet("crashsweep", flag.ContinueOnError)
	cfg, obs, err := parseCrashsweep(fs, []string{"-points", "2", "-workloads", "txdb", "-flight-out", "f.jsonl", "-map-cache", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Points != 2 || !reflect.DeepEqual(cfg.Workloads, []string{"txdb"}) || cfg.Flight == nil ||
		cfg.Flight != obs.Recorder || obs.FlightOut != "f.jsonl" || cfg.MapCachePages != 4 {
		t.Errorf("cfg = %+v, flight-out %q", cfg, obs.FlightOut)
	}
}

// The fleet experiment reads none of -trace-out, -metrics-out,
// -latency-out, -slo and -map-cache; when it runs with any of them set, one
// stderr line names the ones it ignores. Other experiments, and the fleet
// experiment with only the flags it reads, get no line.
func TestWarnFleetIgnores(t *testing.T) {
	for _, tc := range []struct {
		ids  []string
		args []string
		want string
	}{
		{[]string{"fleet"}, []string{"-trace-out", "t.json", "-latency-out", "l.jsonl"},
			"flatflash-bench: the fleet experiment ignores -trace-out, -latency-out\n"},
		{[]string{"fig9a", "fleet"}, []string{"-metrics-out", "m.jsonl", "-slo", "4us", "-map-cache", "4", "-flight-out", "f.jsonl"},
			"flatflash-bench: the fleet experiment ignores -metrics-out, -slo, -map-cache\n"},
		{[]string{"fleet"}, []string{"-flight-out", "f.jsonl"}, ""},
		{[]string{"fig9a"}, []string{"-trace-out", "t.json", "-slo", "4us"}, ""},
	} {
		fs := flag.NewFlagSet("flatflash-bench", flag.ContinueOnError)
		obs := obsflags.Register(fs, experimentFlags)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		warnFleetIgnores(&buf, tc.ids, obs)
		if got := buf.String(); got != tc.want {
			t.Errorf("ids %v, flags %q: warning %q, want %q", tc.ids, tc.args, got, tc.want)
		}
	}
}
