package analysis_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"spotverse/internal/analysis"
	"spotverse/internal/analysis/analysistest"
)

var vetDiagRe = regexp.MustCompile(`(?m)^(\S+\.go):(\d+):\d+: (.*)$`)

// TestVetCopyLocks pins what the suite leaves to go vet's copylocks
// pass: by-value copies of lock-holding structs and of typed atomics.
// It runs `go vet -copylocks` over the vetcopy fixture and checks vet's
// diagnostics against the fixture's `// want` comments, so a toolchain
// that stops reporting one of those copies fails here.
func TestVetCopyLocks(t *testing.T) {
	dir := filepath.Join("testdata", "src", "vetcopy", "a")
	out, err := exec.Command("go", "vet", "-copylocks", "./"+filepath.ToSlash(dir)).CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("go vet: %v", err)
	}
	var diags []analysis.Diagnostic
	for _, m := range vetDiagRe.FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[2])
		diags = append(diags, analysis.Diagnostic{
			Analyzer: "copylocks",
			Position: token.Position{Filename: m[1], Line: line},
			Message:  m[3],
		})
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(dir, "a.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Check(t, fset, []*ast.File{f}, diags)
	if t.Failed() {
		t.Logf("go vet printed:\n%s", out)
	}
}
