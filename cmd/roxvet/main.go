// Command roxvet is the project's invariant checker: a multichecker over the
// seven analyzers under internal/analysis that mechanically enforce the
// engine's concurrency and determinism contracts (see the "Invariants and
// static enforcement" section of DESIGN.md).
//
// It runs one way, as a vet tool (test files included):
//
//	go vet -vettool=$(which roxvet) ./...
//
// The vet-tool form speaks the go command's unit-checker protocol, so
// results are cached in the build cache and re-vetting an unchanged tree is
// nearly free. Run without a protocol argument, roxvet prints its usage and
// the analyzer list and exits 2. Diagnostics can be suppressed line-by-line
// with `//roxvet:ignore <reason>`; the reason is mandatory.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/catalogmut"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detorder"
	"repro/internal/analysis/fsumonly"
	"repro/internal/analysis/rowsclose"
	"repro/internal/analysis/tailpure"
	"repro/internal/analysis/waldurable"
)

// analyzers is the full suite, in stable presentation order.
var analyzers = []*analysis.Analyzer{
	catalogmut.Analyzer,
	ctxflow.Analyzer,
	detorder.Analyzer,
	fsumonly.Analyzer,
	rowsclose.Analyzer,
	tailpure.Analyzer,
	waldurable.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run speaks the vet-tool protocol (-V=full, -flags, or a *.cfg unit file)
// and answers anything else with the usage text on stderr and exit code 2.
func run(args []string, stderr io.Writer) int {
	if code := analysis.VettoolMain(args, analyzers, stderr); code >= 0 {
		return code
	}
	fmt.Fprintf(stderr, "usage: go vet -vettool=$(which roxvet) [packages]\n\nAnalyzers:\n")
	for _, a := range analyzers {
		fmt.Fprintf(stderr, "  %-12s %s\n\n", a.Name, a.Doc)
	}
	return 2
}
