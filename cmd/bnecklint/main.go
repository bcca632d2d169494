// Command bnecklint is the repository's own static-analysis gate: a
// multichecker of five repo-specific analyzers that machine-enforce the
// determinism and lock-discipline invariants the simulator's correctness
// claims rest on (see DESIGN.md §12 for the analyzer → invariant table):
//
//	detrange    unsorted map iteration in deterministic packages
//	walltime    time.Now / os.Getenv / unseeded math/rand in the same
//	lockorder   the live runtime's mu → rate → mailbox lock order
//	eventkey    creator-keyed event scheduling (no ExtCreator/heap bypasses)
//	floatrate   no float arithmetic in the exact 128-bit rate pipeline
//
// Usage:
//
//	bnecklint [flags] [packages]
//
// Packages default to ./... (module-relative patterns: ./..., ./dir/...,
// ./dir). Each analyzer can be disabled with -<name>=false. Diagnostics
// print as file:line:col: [analyzer] message; the exit status is 1 when any
// diagnostic is reported. Violations are silenced only by fixing them or by
// the //bneck: escape directives documented in internal/analysis, each of
// which carries the burden of a one-line justification.
//
// It runs as part of `make lint` (with staticcheck and govulncheck when
// installed) and in the CI lint job.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"bneck/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	suite := analysis.All()
	enabled := make(map[string]*bool, len(suite))
	for _, az := range suite {
		enabled[az.Name] = flag.Bool(az.Name, true, az.Doc)
	}
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print packages as they are analyzed")
	flag.Parse()

	if *list {
		for _, az := range suite {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, err := analysis.FindModRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(modRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	type finding struct {
		pos      string
		analyzer string
		msg      string
	}
	var findings []finding
	for _, path := range paths {
		var active []*analysis.Analyzer
		for _, az := range suite {
			if *enabled[az.Name] && az.Match(path) {
				active = append(active, az)
			}
		}
		if len(active) == 0 {
			continue // nothing to check here; skip the load entirely
		}
		pkg, err := loader.LoadPath(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "bnecklint: %s (%d analyzers)\n", path, len(active))
		}
		for _, az := range active {
			pass := pkg.NewPass(az)
			az.Run(pass)
			for _, d := range pass.Diagnostics() {
				findings = append(findings, finding{
					pos:      pkg.Fset.Position(d.Pos).String(),
					analyzer: az.Name,
					msg:      d.Message,
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].analyzer < findings[j].analyzer
	})
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.pos, f.analyzer, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bnecklint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
