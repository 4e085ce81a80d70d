// Package analysistest runs a suite analyzer over fixture packages and
// checks its findings against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest closely enough that
// fixtures port unchanged if that module ever becomes available.
//
// Fixtures live under testdata/src/<importpath>/ relative to the calling
// test. Each expected finding is declared on its line:
//
//	x := time.Now() // want `time\.Now`
//	a, b := f(), g() // want `first` `second`
//
// Expectations are backquoted or double-quoted regexps matched against
// the finding message; every expectation must be matched by exactly one
// finding on its line and vice versa. Suppressed findings
// (//spotverse:allow) are filtered before matching, so a fixture line
// carrying a directive and no want comment proves suppression works.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"spotverse/internal/analysis"
)

var (
	exportsOnce sync.Once
	exports     analysis.ExportTable
	exportsErr  error
)

// hostExports builds (once) the export-data table of the enclosing
// module plus the std packages fixtures may import.
func hostExports() (analysis.ExportTable, error) {
	exportsOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			exportsErr = err
			return
		}
		exports, exportsErr = analysis.Exports(root, "./...")
	})
	return exports, exportsErr
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above working directory")
		}
		dir = parent
	}
}

// Run loads each fixture package from testdata/src/<path>, applies the
// analyzer, and diffs findings against the fixtures' want comments. The
// fixture's import path is its directory path under testdata/src, so a
// fixture at testdata/src/spotverse/cmd/x tests analyzer allowlists
// keyed on real package paths.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	table, err := hostExports()
	if err != nil {
		t.Fatalf("building export table: %v", err)
	}
	for _, pkgPath := range pkgPaths {
		runOne(t, testdata, a, pkgPath, table)
	}
}

func runOne(t *testing.T, testdata string, a *analysis.Analyzer, pkgPath string, table analysis.ExportTable) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no fixture files in %s", pkgPath, dir)
	}
	pkg, err := analysis.TypeCheck(fset, pkgPath, files, table)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	Check(t, fset, files, diags)
}

// Check diffs diagnostics against the want comments of files (parsed
// with comments into fset), as Run does: a test may use it for another
// tool's diagnostics, such as go vet's, over the same fixture format.
func Check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	type lineKey struct {
		file string
		line int
	}
	got := map[lineKey][]analysis.Diagnostic{}
	for _, d := range diags {
		k := lineKey{d.Position.Filename, d.Position.Line}
		got[k] = append(got[k], d)
	}
	keys := make([]lineKey, 0, len(wants))
	for k := range wants {
		keys = append(keys, lineKey(k))
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		res := wants[wantKey(k)]
		remaining := got[k]
		for _, re := range res {
			idx := -1
			for i, d := range remaining {
				if re.MatchString(d.Message) {
					idx = i
					break
				}
			}
			if idx < 0 {
				t.Errorf("%s:%d: no finding matching %q (got %s)", k.file, k.line, re, messages(remaining))
				continue
			}
			remaining = append(remaining[:idx], remaining[idx+1:]...)
		}
		got[k] = remaining
	}
	for k, ds := range got {
		for _, d := range ds {
			t.Errorf("%s:%d: unexpected finding: %s: %s", k.file, k.line, d.Analyzer, d.Message)
		}
	}
}

type wantKey struct {
	file string
	line int
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(.*)$")
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants parses `// want` comments into per-line regexp lists.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*regexp.Regexp {
	t.Helper()
	out := map[wantKey][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					pat := arg[1]
					if pat == "" {
						pat = arg[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out[k] = append(out[k], re)
				}
				if len(out[k]) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted patterns", pos.Filename, pos.Line)
				}
			}
		}
	}
	return out
}

func messages(ds []analysis.Diagnostic) string {
	if len(ds) == 0 {
		return "no findings"
	}
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%q", d.Message))
	}
	return strings.Join(parts, ", ")
}
