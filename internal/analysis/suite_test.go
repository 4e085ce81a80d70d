package analysis_test

import (
	"testing"

	"spotverse/internal/analysis"
	"spotverse/internal/analysis/analysistest"
)

// Each analyzer gets at least one fixture package proving it fires and
// one site proving //spotverse:allow suppresses it; allowlist and scope
// rules are proven by fixtures whose import paths mirror real package
// paths.

func TestDetRand(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.DetRand,
		"detrand/a",
		"spotverse/cmd/clifixture",
	)
}

func TestMapIter(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapIter, "mapiter/a")
}

func TestSeedFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SeedFlow,
		"spotverse/internal/experiment/seedfix",
		"seedflow/outofscope",
	)
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.ErrDrop, "errdrop/a")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockOrder, "lockorder/a")
}

func TestGoLeak(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.GoLeak, "goleak/a")
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AtomicMix, "atomicmix/a")
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotPath, "hotpath/a")
}

func TestSelect(t *testing.T) {
	got, err := analysis.Select([]string{"mapiter", "detrand"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "detrand" || got[1].Name != "mapiter" {
		t.Fatalf("Select returned %v, want suite order [detrand mapiter]", names(got))
	}
	if _, err := analysis.Select([]string{"nope"}); err == nil {
		t.Fatal("Select accepted unknown analyzer name")
	}
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// TestSuiteCleanOnTree is the self-gate: the repository's own packages
// must lint clean. A deliberate time.Now() seeded anywhere outside the
// allowlist turns this red locally exactly as the CI lint job does.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Run(pkgs, analysis.Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
