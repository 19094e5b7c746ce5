package analyzers_test

import (
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flatflash/internal/analyzers"
	"flatflash/internal/analyzers/load"
)

// copyTree duplicates the fixture module into dst so ApplyFixes can rewrite
// files without dirtying the checked-in corpus.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying fixtures: %v", err)
	}
}

func runAll(t *testing.T, dir string) []analyzers.Diagnostic {
	t.Helper()
	targets, err := load.Packages(dir, []string{"flatflash/fixme/a"})
	if err != nil {
		t.Fatalf("loading fixme corpus from %s: %v", dir, err)
	}
	return analyzers.Run(targets, analyzers.All())
}

// TestApplyFixes drives the full -fix cycle over the fixme corpus: the
// initial run must propose fixes (attribwindow's Abandon insertion and
// detflow's sorted-walk rewrite, once per walk however many sinks it
// feeds), applying them must leave only the unfixable assign-form walk
// reported and every file gofmt-clean, and a second cycle must change
// nothing — the idempotence flatflash-lint -fix promises.
func TestApplyFixes(t *testing.T) {
	tmp := t.TempDir()
	copyTree(t, "testdata/src", tmp)

	diags := runAll(t, tmp)
	if len(diags) == 0 {
		t.Fatalf("fixme corpus produced no diagnostics")
	}
	withFix := map[string]int{}
	var unfixable []string
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			withFix[d.Analyzer]++
		}
		if filepath.Base(d.Pos.Filename) == "assignwalk.go" {
			if len(d.Fixes) > 0 {
				t.Errorf("assign-form walk offers a fix: %s", d)
			}
			unfixable = append(unfixable, d.String())
		}
	}
	// One fix per leaking return, and one per rewritable map walk
	// (RenderCounts's, ReportKeys's feeding two sinks, and DumpBoth's two).
	for name, want := range map[string]int{"attribwindow": 1, "detflow": 4} {
		if withFix[name] != want {
			t.Errorf("%d %s diagnostics carried a fix, want %d; diagnostics: %v", withFix[name], name, want, diags)
		}
	}
	// The assign-form walk is reported at both of its sinks, with no fix.
	if len(unfixable) != 2 {
		t.Errorf("got %d assign-form walk diagnostics, want 2: %v", len(unfixable), unfixable)
	}

	files, err := analyzers.ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if len(files) != 2 {
		t.Errorf("ApplyFixes rewrote %d files, want 2: %v", len(files), files)
	}

	// Every fix removes the diagnostics of the code it rewrites, and the
	// rewrites must not introduce violations of any other analyzer. What
	// stays is exactly the unfixable reports, in a file no fix touched.
	after := runAll(t, tmp)
	var left []string
	for _, d := range after {
		left = append(left, d.String())
	}
	if strings.Join(left, "\n") != strings.Join(unfixable, "\n") {
		t.Errorf("fixed corpus reports\n%s\nwant only the unfixable\n%s",
			strings.Join(left, "\n"), strings.Join(unfixable, "\n"))
	}

	// The rewritten sources are exactly what gofmt would produce.
	snapshot := map[string][]byte{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("reading fixed file: %v", err)
		}
		snapshot[f] = data
		formatted, err := format.Source(data)
		if err != nil {
			t.Fatalf("%s does not parse after fixing: %v", f, err)
		}
		if string(formatted) != string(data) {
			t.Errorf("%s is not gofmt-clean after fixing:\n%s", f, data)
		}
	}

	// Idempotence: a second -fix cycle proposes nothing and touches nothing.
	refixed, err := analyzers.ApplyFixes(after)
	if err != nil {
		t.Fatalf("second ApplyFixes: %v", err)
	}
	if len(refixed) != 0 {
		t.Errorf("second ApplyFixes rewrote %v", refixed)
	}
	for f, before := range snapshot {
		now, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("re-reading %s: %v", f, err)
		}
		if string(now) != string(before) {
			t.Errorf("%s changed across the second fix cycle", f)
		}
	}
}
