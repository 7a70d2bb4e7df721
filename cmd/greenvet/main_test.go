package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"greenenvy/internal/analysis"
)

// staleSrc carries one unused //greenvet:allow of each stale kind, and one
// allow that suppressed a diagnostic.
const staleSrc = `package fixture

var (
	a = 1 //greenvet:allow cachelineage no such analyzer
	b = 2 //greenvet:allow shardsafety does not guard this package
	c = 3 //greenvet:allow nodeterminism guards it, suppressed nothing
	d = 4 //greenvet:allow floatorder suppressed a diagnostic
)
`

// TestStaleAllows checks the reason and the line staleAllows reports for
// each kind of dead allow, and that it leaves a used allow alone.
func TestStaleAllows(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", staleSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	used := map[analysis.AllowKey]bool{{File: "fixture.go", Line: 7, Analyzer: "floatorder"}: true}
	applicable := map[string]bool{"nodeterminism": true, "floatorder": true}
	diags := staleAllows("greenenvy/fixture", fset, []*ast.File{f}, used, applicable)

	want := []struct {
		line   int
		reason string
	}{
		{4, `no analyzer named "cachelineage" exists`},
		{5, `analyzer "shardsafety" does not guard package greenenvy/fixture`},
		{6, "it no longer suppresses any diagnostic"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d stale allows, want %d: %v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		line := fset.Position(d.Pos).Line
		if d.Analyzer != "staleallow" || line != want[i].line || !strings.Contains(d.Message, want[i].reason) {
			t.Errorf("diagnostic %d: line %d [%s] %q; want line %d with %q", i, line, d.Analyzer, d.Message, want[i].line, want[i].reason)
		}
	}
}
