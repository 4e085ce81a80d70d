// Command spotverse-lint runs the eight-analyzer lint suite over the
// repository: determinism (detrand, mapiter, seedflow, errdrop) plus
// concurrency and hot-path invariants (lockorder, goleak, atomicmix,
// hotpath). By-value copies of locks and typed atomics are left to go
// vet's copylocks pass.
//
// Usage:
//
//	spotverse-lint [-only detrand,mapiter] [-list] [-json] [packages ...]
//
// Packages default to ./... relative to the current directory. The exit
// code is 0 when clean, 1 when findings were reported, 2 on a driver
// error (bad flags, packages that do not type-check).
//
// Findings print as file:line:col: analyzer: message. With -json the
// run instead emits one machine-readable object on stdout holding every
// finding and the full suppression inventory (each //spotverse:allow
// directive with its reason and whether it fired); the exit code is
// unchanged, so CI can archive the report and still gate on it. A
// finding can be waived with a directive on the line above it (or
// trailing on its line):
//
//	//spotverse:allow <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spotverse/internal/analysis"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json document: findings that survived suppression
// plus the complete directive inventory, both in deterministic order.
type jsonReport struct {
	Findings     []jsonFinding          `json:"findings"`
	Suppressions []analysis.Suppression `json:"suppressions"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("spotverse-lint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit findings and the suppression inventory as JSON on stdout")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: spotverse-lint [-only a,b] [-list] [-json] [packages ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Suite()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		var err error
		analyzers, err = analysis.Select(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "spotverse-lint:", err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotverse-lint:", err)
		return 2
	}
	diags, sups, err := analysis.RunDetailed(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spotverse-lint:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return name
	}
	if *asJSON {
		report := jsonReport{Findings: []jsonFinding{}, Suppressions: []analysis.Suppression{}}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File:     rel(d.Position.Filename),
				Line:     d.Position.Line,
				Column:   d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		for _, s := range sups {
			s.File = rel(s.File)
			report.Suppressions = append(report.Suppressions, s)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "spotverse-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			pos := d.Position
			pos.Filename = rel(pos.Filename)
			fmt.Printf("%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "spotverse-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
