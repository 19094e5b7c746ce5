package analyzers

import (
	"fmt"
	"os"
	"slices"
	"sort"
)

// ApplyFixes applies every suggested fix carried by diags to the files on
// disk and returns the list of rewritten file paths (sorted, deduped). Edits
// are applied per file in descending offset order so earlier offsets stay
// valid; identical edits are applied once, and other overlapping edits in
// the same file are an error (two analyzers proposing conflicting rewrites
// must be resolved by hand, not by whichever applied last). A second run
// over the fixed tree must produce no further fixes — flatflash-lint -fix
// is idempotent by construction because every fix removes the diagnostic
// that suggested it.
func ApplyFixes(diags []Diagnostic) ([]string, error) {
	type edit struct {
		start, end int
		newText    string
		analyzer   string
	}
	byFile := make(map[string][]edit)
	for _, d := range diags {
		for _, f := range d.Fixes {
			for _, e := range f.Edits {
				if e.Pos.Filename == "" || e.Pos.Filename != e.End.Filename {
					return nil, fmt.Errorf("fix for %s spans files (%s vs %s)", d.Analyzer, e.Pos.Filename, e.End.Filename)
				}
				byFile[e.Pos.Filename] = append(byFile[e.Pos.Filename], edit{
					start:    e.Pos.Offset,
					end:      e.End.Offset,
					newText:  e.NewText,
					analyzer: d.Analyzer,
				})
			}
		}
	}
	var files []string
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		edits := byFile[file]
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].start != edits[j].start {
				return edits[i].start > edits[j].start
			}
			if edits[i].end != edits[j].end {
				return edits[i].end > edits[j].end
			}
			return edits[i].newText > edits[j].newText
		})
		// Fixes that make the same edit agree on it (two sorted-walk
		// rewrites in one file both add the "sort" import): apply it once.
		edits = slices.CompactFunc(edits, func(a, b edit) bool {
			return a.start == b.start && a.end == b.end && a.newText == b.newText
		})
		// Descending order: edits[i] must start at or after edits[i+1] ends.
		for i := 0; i+1 < len(edits); i++ {
			if edits[i+1].end > edits[i].start {
				return nil, fmt.Errorf("%s: overlapping fixes from %s and %s at offsets %d and %d",
					file, edits[i+1].analyzer, edits[i].analyzer, edits[i+1].start, edits[i].start)
			}
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("apply fixes: %w", err)
		}
		for _, e := range edits {
			if e.start < 0 || e.end > len(data) || e.start > e.end {
				return nil, fmt.Errorf("%s: fix range [%d,%d) outside file (%d bytes)", file, e.start, e.end, len(data))
			}
			data = append(data[:e.start], append([]byte(e.newText), data[e.end:]...)...)
		}
		info, err := os.Stat(file)
		mode := os.FileMode(0o644)
		if err == nil {
			mode = info.Mode().Perm()
		}
		if err := os.WriteFile(file, data, mode); err != nil {
			return nil, fmt.Errorf("apply fixes: %w", err)
		}
	}
	return files, nil
}
