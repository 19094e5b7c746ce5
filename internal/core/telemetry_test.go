package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/fault"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// driveInstrumented runs a fixed mixed workload against an instrumented
// hierarchy and returns the exported trace and metrics bytes.
func driveInstrumented(t *testing.T, build func() (Hierarchy, error), seed uint64) (traceOut, metricsOut []byte, tr *telemetry.Tracer) {
	t.Helper()
	h, err := build()
	if err != nil {
		t.Fatal(err)
	}
	tr = telemetry.NewTracer(1 << 16)
	reg := telemetry.NewRegistry(100 * sim.Microsecond)
	h.Instrument(tr, reg)

	region, err := h.Mmap(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	buf := make([]byte, 64)
	// Zipf-ish reuse: half the accesses hit a small hot set so promotions
	// trigger; the rest roam the region and exercise the MMIO path.
	hot := region.Base
	for i := 0; i < 4000; i++ {
		addr := hot + uint64(rng.Intn(4))*64
		if rng.Intn(2) == 0 {
			addr = region.Base + uint64(rng.Intn(int(region.Size-64)))
		}
		if i%10 == 0 {
			if _, err := h.Write(addr, buf); err != nil {
				t.Fatal(err)
			}
		} else if _, err := h.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	reg.Finish(h.Now())

	var tb, mb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, tr, reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	if len(reg.Rows()) < 2 {
		t.Fatalf("only %d metric epochs sampled", len(reg.Rows()))
	}
	return tb.Bytes(), mb.Bytes(), tr
}

func buildFF() (Hierarchy, error) { return NewFlatFlash(testConfig()) }

// buildFaultedFF attaches a fresh fault engine injecting non-crash faults
// (NAND failures and MMIO drops/tears ride through the workload without
// erroring the access path, unlike a power loss).
func buildFaultedFF() (Hierarchy, error) {
	ff, err := NewFlatFlash(testConfig())
	if err != nil {
		return nil, err
	}
	eng, err := fault.NewEngine(fault.Plan{
		{Kind: fault.ProgramFail, At: sim.Time(50 * sim.Microsecond), N: 2},
		{Kind: fault.MMIODrop, At: sim.Time(120 * sim.Microsecond), N: 3},
		{Kind: fault.MMIOTorn, At: sim.Time(200 * sim.Microsecond), N: 2},
	}, 7)
	if err != nil {
		return nil, err
	}
	ff.SetFaults(eng)
	return ff, nil
}

// TestTelemetryDeterministic: two same-seed runs must export byte-identical
// trace and metrics files — the property that makes dumps diffable. The
// faulted builder extends the guarantee to fault-injected runs: the engine's
// seeded draws are part of the deterministic state.
func TestTelemetryDeterministic(t *testing.T) {
	for _, build := range []func() (Hierarchy, error){buildFF, buildFaultedFF,
		func() (Hierarchy, error) { return NewUnifiedMMap(testConfig()) }} {
		t1, m1, _ := driveInstrumented(t, build, 7)
		t2, m2, _ := driveInstrumented(t, build, 7)
		if !bytes.Equal(t1, t2) {
			t.Error("trace bytes differ between same-seed runs")
		}
		if !bytes.Equal(m1, m2) {
			t.Error("metrics bytes differ between same-seed runs")
		}
	}
}

// TestTelemetrySpanNesting: the FlatFlash trace must contain at least one
// access span that covers an MMIO read in time (the nested-stage view the
// exporter promises) and at least one background promotion span.
func TestTelemetrySpanNesting(t *testing.T) {
	_, _, tr := driveInstrumented(t, buildFF, 7)
	spans := tr.Spans()
	var accesses, mmios []telemetry.Span
	promotions := 0
	for _, s := range spans {
		switch s.Kind {
		case telemetry.SpanAccess:
			accesses = append(accesses, s)
		case telemetry.SpanMMIORead, telemetry.SpanMMIOWrite:
			mmios = append(mmios, s)
		case telemetry.SpanPromotion:
			promotions++
		}
	}
	if len(accesses) == 0 || len(mmios) == 0 {
		t.Fatalf("accesses=%d mmios=%d", len(accesses), len(mmios))
	}
	nested := false
	for _, a := range accesses {
		for _, m := range mmios {
			if !m.Start.Before(a.Start) && !a.End().Before(m.End()) {
				nested = true
				break
			}
		}
		if nested {
			break
		}
	}
	if !nested {
		t.Error("no MMIO span nested inside an access span")
	}
	if promotions == 0 {
		t.Error("no promotion span recorded")
	}
}

// TestBaselineFaultSpans: the paging baselines must report page-fault spans.
func TestBaselineFaultSpans(t *testing.T) {
	_, _, tr := driveInstrumented(t, func() (Hierarchy, error) {
		return NewTraditionalStack(testConfig())
	}, 7)
	faults := 0
	for _, s := range tr.Spans() {
		if s.Kind == telemetry.SpanPageFault {
			faults++
		}
	}
	if faults == 0 {
		t.Error("no page_fault span recorded on TraditionalStack")
	}
}

// TestDisabledSinkZeroAlloc: with no telemetry consumer and no registry
// attached, the steady-state access path must not allocate — telemetry must
// be free when off.
func TestDisabledSinkZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, build := range []func() (Hierarchy, error){buildFF,
		func() (Hierarchy, error) { return NewUnifiedMMap(testConfig()) }} {
		h, err := build()
		if err != nil {
			t.Fatal(err)
		}
		region, err := h.Mmap(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		// Settle: promote/fault the page in and let background promotions
		// complete so the steady state is a pure DRAM hit.
		for i := 0; i < 64; i++ {
			if _, err := h.Read(region.Base, buf); err != nil {
				t.Fatal(err)
			}
		}
		h.Advance(10 * sim.Millisecond)
		alloctest.Exact(t, 1000, 0, func() {
			h.Read(region.Base, buf)
		})
	}
}

// TestInstrumentedTickZeroAllocBetweenEpochs: with a registry attached but
// no epoch boundary crossed, Tick must stay allocation-free too (the common
// case between samples).
func TestInstrumentedTickZeroAllocBetweenEpochs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	h, err := buildFF()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(sim.Second) // boundary far in the future
	h.Instrument(nil, reg)
	region, err := h.Mmap(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 64; i++ {
		if _, err := h.Read(region.Base, buf); err != nil {
			t.Fatal(err)
		}
	}
	h.Advance(10 * sim.Millisecond)
	alloctest.Exact(t, 1000, 0, func() {
		h.Read(region.Base, buf)
	})
}

// TestBaselineInstrumentDetach: Instrument(nil, nil) detaches an earlier
// tracer from every layer of the paging baselines, the PCIe link and FTL
// included, so reads after the detach record nothing.
func TestBaselineInstrumentDetach(t *testing.T) {
	for _, build := range []func(Config) (Hierarchy, error){NewUnifiedMMap, NewTraditionalStack} {
		h, err := build(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr := telemetry.NewTracer(1 << 12)
		h.Instrument(tr, nil)
		h.Instrument(nil, nil)
		const pages = 64
		region, err := h.Mmap(pages * uint64(testConfig().PageSize))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for i := uint64(0); i < pages; i++ {
			if _, err := h.Read(region.Base+i*uint64(testConfig().PageSize), buf); err != nil {
				t.Fatal(err)
			}
		}
		if n := tr.Recorded(); n != 0 {
			t.Errorf("%s: detached tracer recorded %d spans over %d page reads", h.Name(), n, pages)
		}
	}
}

// TestAttachOrderIrrelevant: attaching the tracer, flight recorder and
// attribution engine in each of the six orders yields byte-identical trace,
// flight dump and latency budget — each setter only stores its consumer and
// the hierarchy rebuilds the one sink every layer reports through.
func TestAttachOrderIrrelevant(t *testing.T) {
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want [3][]byte
	for _, order := range orders {
		h, err := buildFaultedFF()
		if err != nil {
			t.Fatal(err)
		}
		ff := h.(*FlatFlash)
		tr := telemetry.NewTracer(1 << 16)
		rec := telemetry.NewFlightRecorder(256, 4)
		att := telemetry.NewAttribution(2*sim.Microsecond, 50*sim.Microsecond)
		attach := [3]func(){
			func() { ff.Instrument(tr, nil) },
			func() { ff.SetFlightRecorder(rec) },
			func() { ff.SetAttribution(att) },
		}
		for _, i := range order {
			attach[i]()
		}
		region, err := ff.Mmap(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(3)
		buf := make([]byte, 64)
		for i := 0; i < 3000; i++ {
			addr := region.Base + uint64(rng.Intn(8))*64
			if rng.Intn(2) == 0 {
				addr = region.Base + uint64(rng.Intn(int(region.Size-64)))
			}
			if i%7 == 0 {
				_, err = ff.Write(addr, buf)
			} else {
				_, err = ff.Read(addr, buf)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		att.Finish(ff.Now())
		var got [3]bytes.Buffer
		if err := tr.WriteJSONL(&got[0]); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteDump(&got[1]); err != nil {
			t.Fatal(err)
		}
		if err := att.WriteBudget(&got[2]); err != nil {
			t.Fatal(err)
		}
		if rec.Triggers() == 0 || tr.Recorded() == 0 {
			t.Fatalf("order %v: workload fired %d flight triggers and %d spans; the check needs both",
				order, rec.Triggers(), tr.Recorded())
		}
		if want[0] == nil {
			for i := range want {
				want[i] = got[i].Bytes()
			}
			continue
		}
		for i, name := range []string{"trace", "flight dump", "budget"} {
			if !bytes.Equal(got[i].Bytes(), want[i]) {
				t.Errorf("attach order %v: %s differs from order %v", order, name, orders[0])
			}
		}
	}
}

// TestSharedRegistryColumns: two hierarchies built one after the other share
// a registry, as a paper figure's systems do. Rows sampled before the second
// one registered must still label each value with its own column, and each
// hierarchy's accesses rate must integrate to its own access count.
func TestSharedRegistryColumns(t *testing.T) {
	reg := telemetry.NewRegistry(100 * sim.Microsecond)
	builds := []func() (Hierarchy, error){buildFF, func() (Hierarchy, error) { return NewUnifiedMMap(testConfig()) }}
	counts := []int{3000, 1000}
	var last sim.Time
	buf := make([]byte, 64)
	for i, build := range builds {
		h, err := build()
		if err != nil {
			t.Fatal(err)
		}
		h.Instrument(nil, reg)
		region, err := h.Mmap(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(uint64(i + 1))
		for n := 0; n < counts[i]; n++ {
			if _, err := h.Read(region.Base+uint64(rng.Intn(int(region.Size-64))), buf); err != nil {
				t.Fatal(err)
			}
		}
		last = last.Max(h.Now())
	}
	reg.Finish(last.Add(1)) // a final row after both runs

	var mb bytes.Buffer
	if err := reg.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(mb.String()), "\n")
	integral := map[string]float64{}
	prevT := 0.0
	for _, l := range lines[:len(lines)-1] {
		var row map[string]float64
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatal(err)
		}
		dt := (row["t_ns"] - prevT) / 1e9
		prevT = row["t_ns"]
		for name, v := range row {
			switch {
			case strings.HasPrefix(name, "dram_occupancy"), strings.HasSuffix(name, "hit_ratio"):
				if v < 0 || v > 1 {
					t.Fatalf("epoch %v: %s = %v, not a ratio", row["epoch"], name, v)
				}
			case strings.HasPrefix(name, "accesses_per_s"):
				integral[name] += v * dt
			}
		}
	}
	if got, want := math.Round(integral["accesses_per_s"]), float64(counts[0]); got != want {
		t.Errorf("FlatFlash's accesses rate integrates to %v, want %v", got, want)
	}
	if got, want := math.Round(integral["accesses_per_s#2"]), float64(counts[1]); got != want {
		t.Errorf("UnifiedMMap's accesses rate integrates to %v, want %v", got, want)
	}
	if got, want := reg.Get("accesses"), int64(counts[0]+counts[1]); got != want {
		t.Errorf(`Get("accesses") = %d, want %d`, got, want)
	}
}
