package main

import (
	"testing"

	"repro/internal/analysis"
)

// TestLintClean runs the repository's invariant suite (rtmlint) over the
// benchmark's own package, which the module-wide sweep does not reach
// because the benchmark is a module of its own.
func TestLintClean(t *testing.T) {
	loader, err := analysis.NewLoader("..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(loader.ModuleRoot, []string{"perfbench"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want the benchmark's one", len(pkgs))
	}
	for _, d := range analysis.RunPackage(pkgs[0], analysis.Analyzers()) {
		t.Errorf("%s", d)
	}
}
