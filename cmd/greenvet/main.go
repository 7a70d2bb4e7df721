// Command greenvet enforces this module's determinism contract: it runs
// the internal/analysis suite (nodeterminism, floatorder, shardsafety) over
// the packages each analyzer guards and exits non-zero on any finding.
// Hot-path allocations are not its business: the allocation tests count
// them by running the code (go test -run Alloc ./internal/...).
//
// Every run also audits the //greenvet:allow directives themselves: an
// allow that no longer suppresses any diagnostic — because the code it
// excused was refactored away, it names an analyzer that does not exist,
// or it sits in a package the named analyzer does not guard — is reported
// as a `staleallow` finding and fails the run like any other. An allow is
// a reviewed claim about specific code; once the code is gone the claim
// must go too, or it will silently excuse the next unrelated diagnostic
// that lands on its line. (Vettool mode audits the packages the suite
// guards; standalone mode additionally sweeps unguarded packages, where
// every allow is stale by definition.)
//
// Two invocation styles:
//
//	greenvet ./...                     # standalone multichecker
//	go vet -vettool=$(which greenvet) ./...   # as the go vet tool
//
// Standalone mode loads packages itself (go list -export + the gc
// importer); vettool mode implements the go vet driver protocol (-V=full
// version probe, -flags discovery, and per-package JSON config files), so
// go vet's build cache makes repeated runs incremental.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"greenenvy/internal/analysis"
	"greenenvy/internal/analysis/load"
	"greenenvy/internal/analysis/suite"
)

func main() {
	versionFlag := flag.String("V", "", "print version (go vet protocol; -V=full)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON (go vet protocol)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: greenvet [packages]\n       go vet -vettool=$(which greenvet) [packages]\n\nAnalyzers:\n")
		for _, s := range suite.Suite() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", s.Analyzer.Name, s.Analyzer.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", "staleallow", "report //greenvet:allow directives that no longer suppress any diagnostic (always on)")
		fmt.Fprintf(os.Stderr, "\nHot-path allocations are counted by tests: go test -run Alloc ./internal/...\n")
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		// The go command parses this line to build its action cache key.
		fmt.Println("greenvet version v1.0.0-greenenvy")
		return
	case *flagsFlag:
		// greenvet exposes no analyzer flags to go vet.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vettool(args[0]))
	}
	os.Exit(standalone(args))
}

// standalone loads the requested packages (default ./...) and runs every
// scoped analyzer over them.
func standalone(patterns []string) int {
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenvet:", err)
		return 2
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := runSuite(pkg.ImportPath, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenvet:", err)
			return 2
		}
		found += len(diags)
		printDiags(pkg.Fset, diags)
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "greenvet: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// runSuite applies every analyzer whose scope covers importPath, then
// audits the package's //greenvet:allow directives against the
// suppressions that actually happened.
func runSuite(importPath string, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	used := map[analysis.AllowKey]bool{}
	applicable := map[string]bool{}
	for _, s := range suite.Suite() {
		if !s.AppliesTo(importPath) {
			continue
		}
		applicable[s.Analyzer.Name] = true
		diags, err := analysis.RunWithUsage(s.Analyzer, fset, files, pkg, info, used)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	out = append(out, staleAllows(importPath, fset, files, used, applicable)...)
	return out, nil
}

// staleAllows reports every allow directive that suppressed nothing this
// run, with the most specific reason it is dead weight.
func staleAllows(importPath string, fset *token.FileSet, files []*ast.File, used map[analysis.AllowKey]bool, applicable map[string]bool) []analysis.Diagnostic {
	known := map[string]bool{}
	for _, s := range suite.Suite() {
		known[s.Analyzer.Name] = true
	}
	var out []analysis.Diagnostic
	for _, a := range analysis.Allows(fset, files) {
		if used[a.AllowKey] {
			continue
		}
		var why string
		switch {
		case !known[a.Analyzer]:
			why = fmt.Sprintf("no analyzer named %q exists", a.Analyzer)
		case !applicable[a.Analyzer]:
			why = fmt.Sprintf("analyzer %q does not guard package %s", a.Analyzer, importPath)
		default:
			why = "it no longer suppresses any diagnostic"
		}
		out = append(out, analysis.Diagnostic{
			Pos:      a.Pos,
			Analyzer: "staleallow",
			Message:  fmt.Sprintf("stale //greenvet:allow %s: %s; a dead allow silently excuses the next diagnostic that lands here — remove it", a.Analyzer, why),
		})
	}
	return out
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	wd, _ := os.Getwd()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if wd != "" {
			if r, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(r, "..") {
				file = r
			}
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s [%s]\n", file, pos.Line, pos.Column, d.Message, d.Analyzer)
	}
}

// vetConfig mirrors the JSON config the go command hands a -vettool (see
// cmd/go/internal/work's vetConfig).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// vettool analyzes one package as directed by the go vet driver protocol.
func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenvet:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "greenvet: parse %s: %v\n", cfgPath, err)
		return 2
	}

	// greenvet computes no cross-package facts, but the protocol requires
	// the vetx output file to exist for the go command's cache.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			_ = os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}

	applies := false
	for _, s := range suite.Suite() {
		if s.AppliesTo(cfg.ImportPath) {
			applies = true
		}
	}
	if cfg.VetxOnly || !applies {
		writeVetx()
		return 0
	}

	// go vet also invokes the tool on test variants (the package's files
	// plus its *_test.go files). The determinism and hot-path contracts
	// govern production code only — tests legitimately time the wall clock
	// and construct experiments dynamically — and the base variant already
	// covers the non-test files, so test variants are skipped, matching
	// standalone mode (go list GoFiles excludes test files).
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			writeVetx()
			return 0
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			fmt.Fprintln(os.Stderr, "greenvet:", err)
			return 2
		}
		files = append(files, f)
	}

	imp := load.ExportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		e, ok := cfg.PackageFile[path]
		return e, ok
	})
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	info := load.NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "greenvet: typecheck %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	diags, err := runSuite(cfg.ImportPath, fset, files, pkg, info)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenvet:", err)
		return 2
	}
	writeVetx()
	if len(diags) > 0 {
		printDiags(fset, diags)
		return 1
	}
	return 0
}
