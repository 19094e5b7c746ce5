// flatflash-lint statically enforces the simulator's determinism,
// virtual-time, and hot-path invariants across the tree (see DESIGN.md,
// "Static enforcement of simulator invariants"). It is a multichecker over
// the suite in internal/analyzers:
//
//	walltime      no wall-clock reads; timing flows through sim.Clock
//	seededrand    no global math/rand state; randomness replays from seeds
//	hotalloc      no allocating constructs (and no unannotated same-package
//	              callees) in //flatflash:hotpath functions
//	sharedstate   no cross-shard mutable package state
//	attribwindow  telemetry.Attribution Begin/End/Abandon pair on all CFG
//	              paths; Charge is dominated by Begin; Suspend balances Resume
//	detflow       map-iteration-ordered, pointer-derived, or unsafe values
//	              do not flow into emit sinks or stats.Counters keys
//
// Usage: flatflash-lint [-only a,b] [-list] [-q] [-json] [-fix] [packages]
// (default ./...). Targets are analyzed in parallel (one worker per
// GOMAXPROCS); output is position-sorted after the fan-in, so it is
// byte-identical regardless of parallelism.
//
// -json emits the diagnostics as a JSON array on stdout (consumed by
// scripts/ci.sh for CI annotations). -fix applies every suggested fix —
// attribwindow's Abandon insertion before a leaking return, detflow's
// collect-sort-walk rewrite of a map walk that reaches a sink — and prints
// the rewritten files; a second -fix run proposes nothing, because every
// fix removes the diagnostic that suggested it.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage failure.
// Suppress a single finding with //lint:ignore <analyzer[,analyzer]> <reason>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	// This package is on the walltime allowlist: the lint CLI never runs
	// inside a simulation, and timing its own runs over the tree is how
	// CI latency regressions get noticed.
	"time"

	"flatflash/internal/analyzers"
	"flatflash/internal/analyzers/load"
)

// jsonDiag is the stable wire shape for -json; ci.sh depends on these field
// names.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	quiet := flag.Bool("q", false, "suppress the summary line")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flatflash-lint [-only a,b] [-list] [-q] [-json] [-fix] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analyzers.All()
	if *only != "" {
		byName := make(map[string]*analyzers.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "flatflash-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	targets, err := load.Packages(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flatflash-lint: %v\n", err)
		os.Exit(2)
	}
	diags := analyzers.Run(targets, suite)

	if *fix {
		files, err := analyzers.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flatflash-lint: %v\n", err)
			os.Exit(2)
		}
		for _, f := range files {
			fmt.Println(relPath(f))
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "flatflash-lint: applied fixes to %d files (%d diagnostics total); re-run to see what remains\n",
				len(files), len(diags))
		}
		return
	}

	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     relPath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Fixable:  len(d.Fixes) > 0,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "flatflash-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s [%s]\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "flatflash-lint: %d diagnostics over %d packages in %.1fs\n",
			len(diags), len(targets), time.Since(start).Seconds())
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relPath shortens name to be cwd-relative when it is inside the tree.
func relPath(name string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
