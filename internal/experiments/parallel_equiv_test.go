package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"flatflash/internal/telemetry"
)

// Figure-level gate for the consolidate and fleet grids and for the
// experiments whose cells build the largest devices: their cells and points
// fan out over GOMAXPROCS, so rendering each with one processor and with
// four must produce byte-identical report output. This is the same
// comparison ci.sh makes end-to-end through the flatflash-bench binary.
func TestParallelReportsByteIdentical(t *testing.T) {
	render := func(t *testing.T, procs int, id string) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out bytes.Buffer
		if err := Run(&out, id, Quick); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, id := range []string{"fig7", "fig14", "fig14d", "table1", "table3", "consolidate", "fleet"} {
		t.Run(id, func(t *testing.T) {
			one, four := render(t, 1, id), render(t, 4, id)
			if one != four {
				t.Fatalf("GOMAXPROCS changed the %s report:\n--- 1 ---\n%s--- 4 ---\n%s", id, one, four)
			}
		})
	}
}

// Figure cells and the consolidate and fleet grid points fan out over
// GOMAXPROCS, so the GOMAXPROCS setting must not reach the reports. Unlike
// the quick golden this test also runs under -race, which makes it the one
// that runs two simulations at once there. The second half attaches a
// shared attribution engine and flight recorder: every run must then go
// in-line, in index order, so their dumps keep their bytes too (and the
// race detector would flag concurrent writes into them).
func TestFanOutIndependentOfGOMAXPROCS(t *testing.T) {
	ids := []string{"fig7", "fig11", "fig13", "fig14", "fig14d", "table1", "table3", "consolidate", "fleet"}
	run := func(procs int, withSinks bool) (reports []string, attrib, flight []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var (
			att *telemetry.Attribution
			rec *telemetry.FlightRecorder
		)
		if withSinks {
			att = telemetry.NewAttribution(0, 0)
			rec = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
			SetAttribution(att, rec)
			defer SetAttribution(nil, nil)
		}
		for _, id := range ids {
			var out bytes.Buffer
			if err := Run(&out, id, Quick); err != nil {
				t.Fatal(err)
			}
			reports = append(reports, out.String())
		}
		var attDump, recDump bytes.Buffer
		if err := att.WriteJSONL(&attDump); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteDump(&recDump); err != nil {
			t.Fatal(err)
		}
		return reports, attDump.Bytes(), recDump.Bytes()
	}
	one, _, _ := run(1, false)
	four, _, _ := run(4, false)
	for i, id := range ids {
		if one[i] != four[i] {
			t.Fatalf("%s reports differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", id, one[i], four[i])
		}
	}
	oneSinks, oneAtt, oneFlight := run(1, true)
	fourSinks, fourAtt, fourFlight := run(4, true)
	for i, id := range ids {
		if oneSinks[i] != fourSinks[i] {
			t.Fatalf("%s reports with sinks differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", id, oneSinks[i], fourSinks[i])
		}
	}
	// Only consolidate renders its per-point latency budgets; the figures
	// and the fleet report must not change when sinks are attached.
	for i, id := range ids {
		if id != "consolidate" && oneSinks[i] != one[i] {
			t.Fatalf("attaching sinks changed the %s report", id)
		}
	}
	if len(oneAtt) == 0 || !bytes.Contains(oneFlight, []byte(`"anomaly"`)) {
		t.Fatalf("sinks recorded nothing: %d attribution bytes, flight dump %q", len(oneAtt), oneFlight)
	}
	if !bytes.Equal(oneAtt, fourAtt) {
		t.Fatalf("attribution dumps differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", oneAtt, fourAtt)
	}
	if !bytes.Equal(oneFlight, fourFlight) {
		t.Fatalf("flight dumps differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", oneFlight, fourFlight)
	}
}
