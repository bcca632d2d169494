package analysis_test

import (
	"testing"

	"bneck/internal/analysis"
	"bneck/internal/analysis/analysistest"
)

func TestDetrange(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Detrange, "detrange")
}

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Walltime, "walltime")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Lockorder, "lockorder")
}

func TestEventkey(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Eventkey, "eventkey")
}

func TestFloatrate(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Floatrate, "floatrate")
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, az := range analysis.All() {
		if az.Name == "" || az.Doc == "" || az.Match == nil || az.Run == nil {
			t.Errorf("analyzer %q is incompletely defined", az.Name)
		}
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
	}
	if len(seen) != 5 {
		t.Errorf("suite has %d analyzers, want 5", len(seen))
	}
}

// TestDeterminismScope pins the boundary the schedule explorer depends on:
// the engine and the control plane must stay under the determinism lints
// (the explorer's replay guarantee is built on both being pure functions of
// their inputs and the recorded picks), while internal/mc itself must stay out —
// its swarm strategy and churn fuzzer draw from seeded math/rand by design,
// and adding it to DeterministicPackages would flag every chooser.
func TestDeterminismScope(t *testing.T) {
	in := map[string]bool{}
	for _, p := range analysis.DeterministicPackages {
		in[p] = true
	}
	if !in["bneck/internal/sim"] {
		t.Error("bneck/internal/sim left DeterministicPackages: the chooser hook must not cost the engine its determinism lint")
	}
	if !in["bneck/internal/control"] {
		t.Error("bneck/internal/control left DeterministicPackages: its sweeps and readmissions decide the simulator's event order")
	}
	if in["bneck/internal/mc"] {
		t.Error("bneck/internal/mc joined DeterministicPackages: the explorer's seeded randomness is intentional")
	}
}

// TestSelfLint runs the whole suite over the module itself: the tree must
// stay finding-free, so the gate `make lint` enforces cannot rot between CI
// runs. Skipped in -short mode (it typechecks most of the module).
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint typechecks the whole module")
	}
	modRoot, err := analysis.FindModRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		var active []*analysis.Analyzer
		for _, az := range analysis.All() {
			if az.Match(path) {
				active = append(active, az)
			}
		}
		if len(active) == 0 {
			continue
		}
		pkg, err := loader.LoadPath(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		for _, az := range active {
			pass := pkg.NewPass(az)
			az.Run(pass)
			for _, d := range pass.Diagnostics() {
				t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), az.Name, d.Message)
			}
		}
	}
}
