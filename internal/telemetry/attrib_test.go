package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"flatflash/internal/sim"
)

// TestAttributionReconciles checks the engine's core invariant: for every
// account, the component sums (software residual included) add up exactly to
// the end-to-end total.
func TestAttributionReconciles(t *testing.T) {
	a := NewAttribution(0, 0)
	acct := a.Account("tenant0")

	// Access 1: fully explained (tlb + link == total).
	a.Begin(acct)
	a.Charge(CompTLB, 700)
	a.Charge(CompLink, 4800)
	a.End(5500, 10_000)

	// Access 2: residual 300ns lands on software.
	a.Begin(acct)
	a.Charge(CompFlash, 20_000)
	a.End(20_300, 40_000)

	// Access 3: negative residual (component overlapped the window).
	a.Begin(acct)
	a.Charge(CompLink, 4800)
	a.End(4700, 50_000)

	var sum int64
	for c := Component(0); c < NumComponents; c++ {
		sum += acct.Sum(c)
	}
	if sum != acct.SumTotal() {
		t.Fatalf("component sums %d != end-to-end total %d", sum, acct.SumTotal())
	}
	if want := int64(5500 + 20_300 + 4700); acct.SumTotal() != want {
		t.Fatalf("SumTotal = %d, want %d", acct.SumTotal(), want)
	}
	if got := acct.Sum(CompSoftware); got != 300-100 {
		t.Fatalf("software residual = %d, want 200", got)
	}
	if acct.Total().Count() != 3 {
		t.Fatalf("total count = %d, want 3", acct.Total().Count())
	}
}

// TestAttributionSuspendRoutesToBackground checks Suspend/Resume nesting and
// that out-of-window charges land on the background tally, not an account.
func TestAttributionSuspendRoutesToBackground(t *testing.T) {
	a := NewAttribution(0, 0)
	acct := a.Account("tenant0")

	a.Begin(acct)
	a.Charge(CompLink, 100)
	a.Suspend()
	a.Charge(CompFlash, 5000) // background: suspended
	a.Suspend()
	a.Charge(CompGC, 300) // still suspended (nested)
	a.Resume()
	a.Charge(CompPromote, 40) // still suspended (depth 1)
	a.Resume()
	a.Charge(CompLink, 100) // critical again
	a.End(200, 1000)

	a.Charge(CompDRAM, 77) // no window open: background

	if got := acct.Sum(CompLink); got != 200 {
		t.Fatalf("link sum = %d, want 200", got)
	}
	if acct.Sum(CompFlash) != 0 || acct.Sum(CompGC) != 0 || acct.Sum(CompPromote) != 0 {
		t.Fatal("suspended charges leaked into the account")
	}
	for c, want := range map[Component]int64{CompFlash: 5000, CompGC: 300, CompPromote: 40, CompDRAM: 77} {
		if got := a.Background(c); got != want {
			t.Fatalf("background %v = %d, want %d", c, got, want)
		}
	}
	// An account charge bypasses suspension: a critical-path stall charged
	// to the account lands on it even inside a suspended region.
	a.Begin(acct)
	a.Suspend()
	acct.Charge(CompPromote, 900)
	a.Resume()
	a.End(900, 2000)
	if got := acct.Sum(CompPromote); got != 900 {
		t.Fatalf("account charge = %d, want 900", got)
	}
}

// TestAttributionAbandonDiscardsWindow checks an abandoned access records
// nothing and cannot leak pending charges into the next window.
func TestAttributionAbandonDiscardsWindow(t *testing.T) {
	a := NewAttribution(0, 0)
	acct := a.Account("tenant0")

	a.Begin(acct)
	a.Charge(CompFlash, 9999)
	a.Abandon()
	a.End(5000, 1000) // no current window: no-op

	if acct.Total().Count() != 0 || acct.SumTotal() != 0 {
		t.Fatalf("abandoned access was recorded: count=%d total=%d", acct.Total().Count(), acct.SumTotal())
	}
	a.Begin(acct)
	a.Charge(CompLink, 100)
	a.End(100, 2000)
	if got := acct.Sum(CompFlash); got != 0 {
		t.Fatalf("abandoned pending charge leaked: flash=%d", got)
	}
}

// TestAttributionSLOBurn checks violation counting and burn accumulation.
func TestAttributionSLOBurn(t *testing.T) {
	a := NewAttribution(1000, 0)
	acct := a.Account("tenant0")
	for i, total := range []sim.Duration{500, 1000, 1500, 3000} {
		a.Begin(acct)
		a.End(total, sim.Time(i*100))
	}
	// 1000 is not over the SLO; 1500 burns 500; 3000 burns 2000.
	if acct.Violations() != 2 {
		t.Fatalf("violations = %d, want 2", acct.Violations())
	}
	if acct.BurnNs() != 2500 {
		t.Fatalf("burn = %d, want 2500", acct.BurnNs())
	}
}

// TestAttributionEpochTrigger checks the epoch grid fires the flight
// recorder when a window's p99 exceeds the SLO, and resets the window after
// every boundary.
func TestAttributionEpochTrigger(t *testing.T) {
	rec := NewFlightRecorder(16, 4)
	a := NewAttribution(1000, 100)
	a.SetFlightRecorder(rec)
	acct := a.Account("tenant0")

	// Epoch 1: all accesses fast — no trigger.
	a.Begin(acct)
	a.End(500, 10)
	a.Begin(acct)
	a.End(600, 150) // crosses boundary at 110; window p99=600 <= SLO

	// Epoch 2: slow accesses — p99 over SLO at the next boundary.
	a.Begin(acct)
	a.End(5000, 200)
	a.Begin(acct)
	a.End(5000, 260)
	a.Finish(400) // boundaries at 210, 310 close the bad window

	if acct.BadEpochs() == 0 {
		t.Fatal("no bad epoch despite p99 over SLO")
	}
	if rec.Triggers() == 0 {
		t.Fatal("flight recorder did not trigger")
	}
	if got := rec.Snapshots()[0].Reason; got != "p99_over_slo" {
		t.Fatalf("trigger reason = %q", got)
	}
	// Window resets: a later epoch with fast accesses must not re-trigger.
	before := acct.BadEpochs()
	a.Begin(acct)
	a.End(100, 450)
	a.Finish(700)
	if acct.BadEpochs() != before {
		t.Fatalf("bad epochs grew (%d -> %d) after window reset", before, acct.BadEpochs())
	}
}

// TestAttributionNilSafe drives the whole API through nil receivers: the
// disabled configuration must be a sequence of no-ops.
func TestAttributionNilSafe(t *testing.T) {
	var a *Attribution
	a.Begin(nil)
	a.Charge(CompLink, 100)
	a.Suspend()
	a.Resume()
	a.Abandon()
	a.End(100, 10)
	a.Finish(10)
	a.SetFlightRecorder(nil)
	if a.Account("x") != nil || a.Accounts() != nil || a.Background(CompLink) != 0 || a.SLO() != 0 {
		t.Fatal("nil Attribution leaked state")
	}
	var buf bytes.Buffer
	if err := a.WriteBudget(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil WriteBudget wrote output")
	}
	if err := a.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil WriteJSONL wrote output")
	}

	var ta *TenantAttrib
	ta.Charge(CompDRAM, 5) // must not panic
	if ta.Name() != "" || ta.Sum(CompDRAM) != 0 || ta.SumTotal() != 0 ||
		ta.Hist(CompDRAM) != nil || ta.Total() != nil ||
		ta.Violations() != 0 || ta.BurnNs() != 0 || ta.BadEpochs() != 0 {
		t.Fatal("nil TenantAttrib leaked state")
	}
}

// TestWriteBudgetDeterministicAndReconciled renders the budget table twice
// and checks byte identity, plus that every account's total row equals the
// sum of its component rows.
func TestWriteBudgetDeterministicAndReconciled(t *testing.T) {
	build := func() *Attribution {
		a := NewAttribution(2000, 0)
		for _, name := range []string{"tenant0", "tenant1"} {
			acct := a.Account(name)
			a.Begin(acct)
			a.Charge(CompTLB, 700)
			a.Charge(CompLink, 4800)
			a.End(5600, 100)
			a.Begin(acct)
			a.Charge(CompFlash, 20_000)
			a.End(20_000, 200)
		}
		a.Suspend()
		a.Charge(CompPromote, 1234)
		a.Resume()
		return a
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteBudget(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteBudget(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("budget tables differ across identical builds")
	}
	out := b1.String()
	for _, want := range []string{"tenant0", "tenant1", "total", "tlb", "link", "flash", "background", "promote", "slo: violations="} {
		if !strings.Contains(out, want) {
			t.Fatalf("budget table missing %q:\n%s", want, out)
		}
	}
	a := build()
	for _, acct := range a.Accounts() {
		var sum int64
		for c := Component(0); c < NumComponents; c++ {
			sum += acct.Sum(c)
		}
		if sum != acct.SumTotal() {
			t.Fatalf("%s: components %d != total %d", acct.Name(), sum, acct.SumTotal())
		}
	}
}

// TestComponentNamesComplete ensures every component has a distinct export
// name (the budget table and JSONL schema depend on them).
func TestComponentNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Component(0); c < NumComponents; c++ {
		n := c.String()
		if n == "" || n == "unknown" {
			t.Fatalf("component %d has no name", c)
		}
		if seen[n] {
			t.Fatalf("duplicate component name %q", n)
		}
		seen[n] = true
	}
	if NumComponents.String() != "unknown" {
		t.Fatal("out-of-range component should print unknown")
	}
}
