// Package load turns Go package patterns into parsed, type-checked
// packages using only the standard library and the go tool itself.
//
// Instead of golang.org/x/tools/go/packages (which this module deliberately
// does not depend on), it shells out to `go list -export -deps -json` — the
// same mechanism go/packages uses under the hood — to obtain, for every
// package in the transitive closure of the requested patterns, the list of
// source files and the path to compiler export data in the build cache.
// Target packages are parsed from source and type-checked with the
// standard gc importer reading dependency export data, so the resulting
// *types.Info is exactly what the compiler saw.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one parsed, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// NewInfo returns a types.Info with every map the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// Packages loads the packages matched by patterns, rooted at dir (the
// module directory; "" means the current directory). Standard-library
// packages matched by a pattern are skipped: the analyzers only ever run
// over this module's code.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Pass 1: which import paths did the patterns match?
	out, err := runGoList(dir, append([]string{"list", "-e", "-json=ImportPath,Standard"}, patterns...))
	if err != nil {
		return nil, err
	}
	matched := map[string]bool{}
	if err := decodeStream(out, func(p listPackage) {
		if !p.Standard {
			matched[p.ImportPath] = true
		}
	}); err != nil {
		return nil, err
	}

	// Pass 2: export data and sources for the full dependency closure.
	out, err = runGoList(dir, append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Dir,GoFiles,Standard,Error"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listPackage
	if err := decodeStream(out, func(p listPackage) {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if matched[p.ImportPath] {
			targets = append(targets, p)
		}
	}); err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, func(path string) (string, bool) {
		e, ok := exports[path]
		return e, ok
	})

	var pkgs []*Package
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", t.ImportPath, t.Error.Err)
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			continue
		}
		info := NewInfo()
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: typecheck %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that resolves import paths
// through compiler export data files located by resolve (import path →
// export data file). Packages resolves through the module's dependency
// closure; the analysistest harness reuses it with the standard-library
// table StdlibExports builds.
func ExportImporter(fset *token.FileSet, resolve func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := resolve(path)
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(e)
	})
}

// StdlibExports runs `go list -export` over the given standard-library
// import paths (plus their dependencies) and returns path → export data
// file. The analysistest harness uses it to type-check testdata packages
// that import only the standard library.
func StdlibExports(paths ...string) (map[string]string, error) {
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	out, err := runGoList("", append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, paths...))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	if err := decodeStream(out, func(p listPackage) {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}); err != nil {
		return nil, err
	}
	return exports, nil
}

// runGoList executes the go tool and returns stdout, folding stderr into
// the error on failure.
func runGoList(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, errors.New("load: go list: " + msg)
	}
	return stdout.Bytes(), nil
}

// decodeStream decodes the concatenated-JSON stream `go list -json` emits.
func decodeStream(data []byte, visit func(listPackage)) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("load: decode go list output: %w", err)
		}
		visit(p)
	}
}
