package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestReportFormatting(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Header: []string{"A", "LongColumn"}}
	r.AddRow("1", "2")
	r.AddRow("wide-cell", "3")
	r.AddNote("n=%d", 5)
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "LongColumn", "wide-cell", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScalePick(t *testing.T) {
	if Quick.pick(1, 2) != 1 || Full.pick(1, 2) != 2 {
		t.Fatal("pick broken")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3", "fig7", "fig8", "fig9a", "fig9b",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig14d"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %s", w)
		}
	}
	if len(Describe()) != len(ids) {
		t.Error("Describe length mismatch")
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "fig99", Quick); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestHelpers(t *testing.T) {
	if ratio(3, 0) != "-" || ratio(3, 2) != "1.50x" {
		t.Fatal("ratio formatting")
	}
	if mb(2<<30) != "2GB" || mb(3<<20) != "3MB" || mb(64<<10) != "64KB" {
		t.Fatal("mb formatting")
	}
	if _, err := current.build("Nope", appConfig("GUPS")); err == nil {
		t.Fatal("unknown system accepted")
	}
}

// Table 2 is pure configuration and must match the paper exactly.
func TestTable2MatchesPaper(t *testing.T) {
	rep := Table2()
	want := map[string]string{
		"Read a cache line in SSD-Cache via PCIe MMIO":  "4.80µs",
		"Write a cache line in SSD-Cache via PCIe MMIO": "0.60µs",
		"Promote a page from SSD-Cache to host DRAM":    "12.10µs",
		"Update PTE and TLB entry in host machine":      "1.40µs",
		"Page table walking to get the page location":   "0.70µs",
	}
	for _, row := range rep.Rows {
		if w, ok := want[row[0]]; ok && row[1] != w {
			t.Errorf("%s = %s, want %s", row[0], row[1], w)
		}
		delete(want, row[0])
	}
	if len(want) != 0 {
		t.Errorf("rows missing: %v", want)
	}
}

// Structural checks on the cheaper experiments at Quick scale: right number
// of rows/columns and the headline directions.
func TestFig9aShape(t *testing.T) {
	rep := Fig9a(Quick)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0][0] != "FlatFlash" {
		t.Fatal("row order")
	}
	// Slowdown column of the baselines must exceed 1.00x.
	for _, row := range rep.Rows[1:] {
		if row[4] <= "1.00x" {
			t.Errorf("%s not slower than FlatFlash: %s", row[0], row[4])
		}
	}
}

func TestFig13Shape(t *testing.T) {
	rep := Fig13(Quick)
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for i := 1; i <= 3; i++ {
			if !strings.HasSuffix(row[i], "x") || strings.HasPrefix(row[i], "0.") {
				t.Errorf("%s/%s: speedup %q below 1x", row[0], rep.Header[i], row[i])
			}
		}
	}
}

func TestFig9bRunsAllFractions(t *testing.T) {
	rep := Fig9b(Quick)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestRunWritesOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "table2", Quick); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "table2") {
		t.Fatal("no output")
	}
}
