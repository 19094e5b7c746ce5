package analyzers_test

import (
	"runtime"
	"slices"
	"testing"

	"flatflash/internal/analyzers"
	"flatflash/internal/analyzers/analyzertest"
	"flatflash/internal/analyzers/load"
)

// TestDirectiveValidation: //lint:ignore without a reason, or naming an
// unknown analyzer, is itself reported (pseudo-analyzer "lint") no matter
// which analyzer runs — suppressions must not silently rot.
func TestDirectiveValidation(t *testing.T) {
	analyzertest.Run(t, analyzers.Walltime, "flatflash/lintdir/a")
}

// TestDirectiveScope drives the suppression edge cases end to end:
// comma-separated analyzer lists, own-line/next-line coverage, and the
// directive-above-a-block shape that must NOT suppress the block body.
func TestDirectiveScope(t *testing.T) {
	analyzertest.Run(t, analyzers.Walltime, "flatflash/lintdir/b")
}

// TestSuiteNames pins the suite composition: CLI -only flags and
// //lint:ignore directives resolve against these names.
func TestSuiteNames(t *testing.T) {
	want := []string{"walltime", "seededrand", "hotalloc", "sharedstate", "attribwindow", "detflow"}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}

// TestRunIndependentOfGOMAXPROCS: Run fans targets out over GOMAXPROCS
// workers, so the whole fixture corpus must yield the same diagnostics,
// fixes included, on one worker and on four.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	targets, err := load.Packages("testdata/src", []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture corpus: %v", err)
	}
	run := func(procs int) []analyzers.Diagnostic {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return analyzers.Run(targets, analyzers.All())
	}
	one, four := run(1), run(4)
	if len(one) == 0 {
		t.Fatalf("fixture corpus produced no diagnostics")
	}
	if !slices.EqualFunc(one, four, func(a, b analyzers.Diagnostic) bool {
		return a.String() == b.String() && slices.EqualFunc(a.Fixes, b.Fixes, func(x, y analyzers.Fix) bool {
			return x.Message == y.Message && slices.Equal(x.Edits, y.Edits)
		})
	}) {
		t.Errorf("diagnostics differ between GOMAXPROCS 1 (%d) and 4 (%d)", len(one), len(four))
	}
}
