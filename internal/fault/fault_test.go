package fault

import (
	"bytes"
	"strings"
	"testing"

	"flatflash/internal/sim"
)

func mustPlan(t *testing.T, src string) Plan {
	t.Helper()
	p, err := ParsePlan(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", src, err)
	}
	return p
}

func TestParsePlan(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want Plan
		ok   bool
	}{
		{"empty", "", nil, true},
		{"comments", "# power study\n\n  # another\n", nil, true},
		{"crash", "crash 1500\n", Plan{{Crash, 1500, 1}}, true},
		{"crash at zero", "crash 0\n", Plan{{Crash, 0, 1}}, true},
		{"units", "crash 2us\ncrash 1ms\ncrash 1s\ncrash 5ns\n",
			Plan{{Crash, 2000, 1}, {Crash, 1_000_000, 1}, {Crash, 1_000_000_000, 1}, {Crash, 5, 1}}, true},
		{"inline comment", "crash 10 # mid-op\n", Plan{{Crash, 10, 1}}, true},
		{"counted", "program-fail 100 3\nerase-fail 200 1\nmmio-drop 0 2\nmmio-torn 5 1\n",
			Plan{{ProgramFail, 100, 3}, {EraseFail, 200, 1}, {MMIODrop, 0, 2}, {MMIOTorn, 5, 1}}, true},
		{"battery zero budget", "battery-drain 0 0\n", Plan{{BatteryDrain, 0, 0}}, true},
		{"overlapping crashes", "crash 100\ncrash 100\ncrash 50\n",
			Plan{{Crash, 100, 1}, {Crash, 100, 1}, {Crash, 50, 1}}, true},
		{"unknown kind", "melt 100 1\n", nil, false},
		{"crash with count", "crash 100 2\n", nil, false},
		{"missing count", "program-fail 100\n", nil, false},
		{"zero count", "program-fail 100 0\n", nil, false},
		{"negative count", "mmio-drop 100 -1\n", nil, false},
		{"negative time", "crash -5\n", nil, false},
		{"garbage time", "crash soon\n", nil, false},
		{"negative battery", "battery-drain 0 -2\n", nil, false},
		{"trailing junk", "crash 100 1 extra\n", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParsePlan(strings.NewReader(tc.src))
			if tc.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok {
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d faults, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("fault %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p := mustPlan(t, "crash 10\nprogram-fail 2us 3\nbattery-drain 0 4\nmmio-torn 7 1\n")
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(p) {
		t.Fatalf("round trip changed length: %d -> %d", len(p), len(back))
	}
	for i := range p {
		if back[i] != p[i] {
			t.Errorf("fault %d changed: %+v -> %+v", i, p[i], back[i])
		}
	}
}

// Crash scheduling: crash at t=0 fires on the first check, crash after the
// last op never fires, and overlapping crashes fire one at a time.
func TestEngineCrashEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		plan   string
		checks []sim.Time
		fires  []bool
	}{
		{"at zero", "crash 0\n", []sim.Time{0, 0}, []bool{true, false}},
		{"after last op", "crash 1000000\n", []sim.Time{10, 500}, []bool{false, false}},
		{"mid", "crash 100\n", []sim.Time{50, 99, 100, 200}, []bool{false, false, true, false}},
		{"overlapping", "crash 100\ncrash 100\ncrash 300\n",
			[]sim.Time{100, 100, 150, 300}, []bool{true, true, false, true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(mustPlan(t, tc.plan), 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range tc.checks {
				if got := e.CrashDue(at); got != tc.fires[i] {
					t.Errorf("check %d at t=%d: fired=%v, want %v", i, at, got, tc.fires[i])
				}
			}
		})
	}
}

func TestEngineCountedFaults(t *testing.T) {
	e, err := NewEngine(mustPlan(t, "program-fail 100 2\nerase-fail 0 1\nmmio-drop 50 1\nmmio-torn 50 1\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.FailProgram(99) {
		t.Error("program fault before its arm time")
	}
	if !e.FailProgram(100) || !e.FailProgram(500) || e.FailProgram(501) {
		t.Error("program fault count not honored")
	}
	if !e.FailErase(0) || e.FailErase(1) {
		t.Error("erase fault count not honored")
	}
	// Drops take precedence over tears; each consumed independently.
	if got := e.MMIOWrite(60); got != WriteDropped {
		t.Errorf("first MMIO write outcome = %v, want dropped", got)
	}
	if got := e.MMIOWrite(61); got != WriteTorn {
		t.Errorf("second MMIO write outcome = %v, want torn", got)
	}
	if got := e.MMIOWrite(62); got != WriteOK {
		t.Errorf("third MMIO write outcome = %v, want ok", got)
	}
	s := e.Stats()
	if s.ProgramFailures != 2 || s.EraseFailures != 1 || s.MMIODropped != 1 || s.MMIOTorn != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Total() != 5 {
		t.Errorf("total = %d, want 5", s.Total())
	}
}

func TestEngineBatteryBudget(t *testing.T) {
	e, err := NewEngine(mustPlan(t, "battery-drain 100 3\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, limited := e.BatteryBudget(99); limited {
		t.Error("battery fault before its arm time")
	}
	keep, limited := e.BatteryBudget(150)
	if !limited || keep != 3 {
		t.Errorf("BatteryBudget = (%d, %v), want (3, true)", keep, limited)
	}
	if _, limited := e.BatteryBudget(200); limited {
		t.Error("battery fault applied twice")
	}
	if e.Stats().BatteryTruncated != 1 {
		t.Errorf("BatteryTruncated = %d", e.Stats().BatteryTruncated)
	}
}

// A nil engine must be a safe no-op everywhere: consumers embed the pointer
// without nil checks.
func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.CrashDue(0) || e.FailProgram(0) || e.FailErase(0) {
		t.Error("nil engine injected a fault")
	}
	if got := e.MMIOWrite(0); got != WriteOK {
		t.Errorf("nil engine MMIO outcome = %v", got)
	}
	if _, limited := e.BatteryBudget(0); limited {
		t.Error("nil engine limited the battery")
	}
	if _, ok := e.NextCrash(); ok {
		t.Error("nil engine has a next crash")
	}
	if e.Stats().Total() != 0 {
		t.Error("nil engine has stats")
	}
	e.SetSink(nil)
}

func TestNewEngineRejectsBadPlan(t *testing.T) {
	if _, err := NewEngine(Plan{{Kind: numKinds, At: 0, N: 1}}, 1); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := NewEngine(Plan{{Kind: Crash, At: -1, N: 1}}, 1); err == nil {
		t.Error("negative time accepted")
	}
}

// Same plan + same seed must inject the identical sequence.
func TestEngineDeterministic(t *testing.T) {
	src := "crash 500\nprogram-fail 100 2\nmmio-drop 0 3\nbattery-drain 0 1\n"
	run := func() []bool {
		e, err := NewEngine(mustPlan(t, src), 42)
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for now := sim.Time(0); now < 1000; now += 50 {
			out = append(out, e.FailProgram(now), e.MMIOWrite(now) != WriteOK, e.CrashDue(now))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged between same-seed runs", i)
		}
	}
}
