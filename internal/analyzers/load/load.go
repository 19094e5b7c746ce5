// Package load turns package patterns into type-checked analyzers.Target
// values using only the standard library. It is the hermetic replacement
// for golang.org/x/tools/go/packages: the package graph comes from
// `go list -e -deps -json`, whose output is dependency-first, and each
// package is parsed and checked with go/parser + go/types. Dependencies
// (the standard library, other module packages pulled in transitively) are
// checked API-only (IgnoreFuncBodies) since analyzers never look inside
// them; pattern-matched packages get full bodies and a full types.Info.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"flatflash/internal/analyzers"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

type loader struct {
	fset  *token.FileSet
	pkgs  map[string]*listPkg
	types map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
	errs  []error
}

// Packages loads the packages matching patterns, resolved relative to dir
// (the module root or any directory inside it). It returns one Target per
// matched package, sorted by import path. Parse or type errors in matched
// packages make the load fail; dependency packages only need to present a
// coherent API.
func Packages(dir string, patterns []string) ([]*analyzers.Target, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// CGO_ENABLED=0 keeps every dependency a pure-Go file set that
	// go/types can check from source.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	ld := &loader{
		fset:  token.NewFileSet(),
		pkgs:  make(map[string]*listPkg),
		types: make(map[string]*types.Package),
		infos: make(map[string]*types.Info),
		files: make(map[string][]*ast.File),
	}
	var order []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %v", err)
		}
		ld.pkgs[p.ImportPath] = p
		order = append(order, p)
	}

	var targets []*analyzers.Target
	for _, p := range order {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		tpkg, err := ld.check(p.ImportPath)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		targets = append(targets, &analyzers.Target{
			Path:  p.ImportPath,
			Fset:  ld.fset,
			Files: ld.files[p.ImportPath],
			Pkg:   tpkg,
			Info:  ld.infos[p.ImportPath],
		})
	}
	if len(ld.errs) > 0 {
		return nil, errors.Join(ld.errs...)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Path < targets[j].Path })
	return targets, nil
}

// check type-checks one package (memoized), recursing into imports.
func (ld *loader) check(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := ld.types[path]; ok {
		if tp == nil {
			return nil, fmt.Errorf("import cycle or prior failure in %s", path)
		}
		return tp, nil
	}
	p, ok := ld.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("package %s not in go list output", path)
	}
	if p.Error != nil {
		return nil, fmt.Errorf("%s: %s", path, p.Error.Err)
	}
	ld.types[path] = nil // cycle guard

	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	target := !p.DepOnly
	conf := types.Config{
		Importer:         &pkgImporter{ld: ld, importMap: p.ImportMap},
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !target,
		FakeImportC:      true,
	}
	conf.Error = func(err error) {
		// Target errors fail the load (all of them, so one run surfaces
		// everything); dependency packages only need a coherent API, and
		// any symbol they truly fail to provide resurfaces as a target
		// error at the use site.
		if target {
			ld.errs = append(ld.errs, err)
		}
	}
	var info *types.Info
	if target {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
	}
	tp, _ := conf.Check(path, ld.fset, files, info) // errors went to conf.Error
	ld.types[path] = tp
	if target {
		ld.files[path] = files
		ld.infos[path] = info
	}
	return tp, nil
}

// pkgImporter resolves an import path seen in source to a checked package,
// applying the importing package's vendor ImportMap first.
type pkgImporter struct {
	ld        *loader
	importMap map[string]string
}

func (pi *pkgImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := pi.importMap[path]; ok {
		path = mapped
	}
	return pi.ld.check(path)
}
