package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseTarget builds a minimal Target (no type info — collectIgnores only
// reads comments) from source text. The src may use ␠ markers for trailing
// spaces so gofmt cannot strip the whitespace this test is about.
func parseTarget(t *testing.T, src string) *Target {
	t.Helper()
	src = strings.ReplaceAll(src, "␠", " ")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Target{Path: "sup", Fset: fset, Files: []*ast.File{f}}
}

// TestIgnoreMultiAnalyzer: one comma-separated directive suppresses every
// named analyzer, and only those, on its line and the line below.
func TestIgnoreMultiAnalyzer(t *testing.T) {
	tgt := parseTarget(t, `package sup

func f() {
	//lint:ignore walltime,detflow shared fixture clock
	_ = 1
}
`)
	ig, bad := collectIgnores(tgt)
	if len(bad) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", bad)
	}
	stmt := token.Position{Filename: "sup.go", Line: 5}
	for _, a := range []string{"walltime", "detflow"} {
		if !ig.suppressed(a, stmt) {
			t.Errorf("%s not suppressed on the line below the directive", a)
		}
	}
	if ig.suppressed("hotalloc", stmt) {
		t.Errorf("hotalloc suppressed though the directive does not name it")
	}
}

// TestIgnoreLineScope: a directive covers its own line and the line
// immediately below — a directive above a block does NOT leak onto the
// statements inside the block.
func TestIgnoreLineScope(t *testing.T) {
	tgt := parseTarget(t, `package sup

func f(on bool) {
	//lint:ignore walltime directive above the if-statement only
	if on {
		_ = 1
	}
	_ = 2 //lint:ignore walltime trailing on the same line
}
`)
	ig, bad := collectIgnores(tgt)
	if len(bad) != 0 {
		t.Fatalf("unexpected directive diagnostics: %v", bad)
	}
	at := func(line int) token.Position { return token.Position{Filename: "sup.go", Line: line} }
	if !ig.suppressed("walltime", at(4)) {
		t.Errorf("directive's own line not suppressed")
	}
	if !ig.suppressed("walltime", at(5)) {
		t.Errorf("line below the directive (the if header) not suppressed")
	}
	if ig.suppressed("walltime", at(6)) {
		t.Errorf("directive above the block leaked onto a statement inside it")
	}
	if !ig.suppressed("walltime", at(8)) {
		t.Errorf("trailing same-line directive not suppressed")
	}
}

// TestIgnoreWhitespaceReason: a reason that is only whitespace is no reason
// at all — the directive is malformed and suppresses nothing. (gofmt strips
// trailing blanks, so this shape is built here rather than in a fixture.)
func TestIgnoreWhitespaceReason(t *testing.T) {
	tgt := parseTarget(t, `package sup

func f() {
	//lint:ignore walltime␠␠␠
	_ = 1
}
`)
	ig, bad := collectIgnores(tgt)
	if len(bad) != 1 {
		t.Fatalf("got %d directive diagnostics, want 1 malformed: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "malformed") {
		t.Errorf("diagnostic %q does not say malformed", bad[0].Message)
	}
	if ig.suppressed("walltime", token.Position{Filename: "sup.go", Line: 5}) {
		t.Errorf("malformed directive still suppressed the line below")
	}
}

// TestIgnoreUnknownInList: one unknown name poisons the whole directive —
// the known names in the same list do not suppress either, so a typo cannot
// half-work.
func TestIgnoreUnknownInList(t *testing.T) {
	tgt := parseTarget(t, `package sup

func f() {
	//lint:ignore walltime,wallltime fat-fingered second name
	_ = 1
}
`)
	ig, bad := collectIgnores(tgt)
	if len(bad) != 1 || !strings.Contains(bad[0].Message, "unknown analyzer wallltime") {
		t.Fatalf("got directive diagnostics %v, want one unknown-analyzer report", bad)
	}
	if ig.suppressed("walltime", token.Position{Filename: "sup.go", Line: 5}) {
		t.Errorf("directive with an unknown name still suppressed its known name")
	}
}
