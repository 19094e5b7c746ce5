package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"flatflash/internal/telemetry"
)

// Figure-level gate for the -parallel flag: rendering the consolidate and
// fleet experiments with their simulations fanned out over four workers
// must produce byte-identical report output. This is the same comparison ci.sh
// makes end-to-end through the flatflash-bench binary.
func TestParallelReportsByteIdentical(t *testing.T) {
	for _, id := range []string{"consolidate", "fleet"} {
		t.Run(id, func(t *testing.T) {
			SetParallel(0)
			var seq bytes.Buffer
			if err := Run(&seq, id, Quick); err != nil {
				t.Fatal(err)
			}
			SetParallel(4)
			defer SetParallel(0)
			var par bytes.Buffer
			if err := Run(&par, id, Quick); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Fatalf("-parallel changed the %s report:\n--- sequential ---\n%s--- parallel ---\n%s",
					id, seq.String(), par.String())
			}
		})
	}
}

// Figure cells fan out over GOMAXPROCS, so the GOMAXPROCS setting must not
// reach the reports. Unlike the quick golden this test also runs under
// -race, which makes it the one that runs two simulations at once there.
// The second half attaches a shared attribution engine: the cells must then
// run in-line, in index order, so its JSONL dump keeps its bytes too (and
// the race detector would flag concurrent writes into the engine).
func TestFanOutIndependentOfGOMAXPROCS(t *testing.T) {
	ids := []string{"fig11", "fig13"}
	run := func(procs int, withAttrib bool) (reports, attrib []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var att *telemetry.Attribution
		if withAttrib {
			att = telemetry.NewAttribution(0, 0)
			SetAttribution(att, nil)
			defer SetAttribution(nil, nil)
		}
		var out bytes.Buffer
		for _, id := range ids {
			if err := Run(&out, id, Quick); err != nil {
				t.Fatal(err)
			}
		}
		var dump bytes.Buffer
		if att != nil {
			if err := att.WriteJSONL(&dump); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes(), dump.Bytes()
	}
	one, _ := run(1, false)
	four, _ := run(4, false)
	if !bytes.Equal(one, four) {
		t.Fatalf("reports differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", one, four)
	}
	oneAtt, oneDump := run(1, true)
	fourAtt, fourDump := run(4, true)
	if !bytes.Equal(oneAtt, one) || !bytes.Equal(fourAtt, one) {
		t.Fatal("attaching an attribution engine changed the reports")
	}
	if len(oneDump) == 0 {
		t.Fatal("attribution engine recorded nothing")
	}
	if !bytes.Equal(oneDump, fourDump) {
		t.Fatalf("attribution dumps differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", oneDump, fourDump)
	}
}
