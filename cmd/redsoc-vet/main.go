// Command redsoc-vet is the repository's correctness lint suite: a
// multichecker over the custom analyzers in internal/analysis. It enforces
// the invariants the simulator's claims rest on — tick/picosecond/cycle unit
// discipline, deterministic simulation (lexically via simdeterminism and
// whole-program via detflow's taint analysis), panic placement, conservative
// rounding of delay arithmetic, the obs layer's zero-overhead contract, and
// the hot path's zero-allocation contract (hotpath: in each marked body and
// transitively through the call graph).
//
// Usage:
//
//	go run ./cmd/redsoc-vet ./...
//	go run ./cmd/redsoc-vet -run tickunits,panicpolicy ./internal/ooo
//	go run ./cmd/redsoc-vet -sarif ./... > vet.sarif
//
// Exit status: 0 with no findings, 1 when any diagnostic is reported, 2 on
// internal errors (unloadable packages, unknown analyzer names, bad flags).
// Audited, intentional sites are suppressed in source with a
// `//lint:allow <analyzer> <reason>` annotation on (or directly above) the
// offending line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"redsoc/internal/analysis/conservativeround"
	"redsoc/internal/analysis/detflow"
	"redsoc/internal/analysis/framework"
	"redsoc/internal/analysis/hotpath"
	"redsoc/internal/analysis/obszeroalloc"
	"redsoc/internal/analysis/panicpolicy"
	"redsoc/internal/analysis/simdeterminism"
	"redsoc/internal/analysis/tickunits"
)

var analyzers = []*framework.Analyzer{
	tickunits.Analyzer,
	simdeterminism.Analyzer,
	detflow.Analyzer,
	panicpolicy.Analyzer,
	conservativeround.Analyzer,
	obszeroalloc.Analyzer,
	hotpath.Analyzer,
}

func main() {
	os.Exit(vet(os.Args[1:], os.Stdout, os.Stderr))
}

// vet is the whole command behind a testable seam: parse flags, load, run,
// render. Returns the process exit code; all I/O goes through the writers.
func vet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redsoc-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "print the available analyzers and exit")
		run      = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		dir      = fs.String("C", ".", "change to this directory before loading packages")
		jsonOut  = fs.Bool("json", false, "write diagnostics to stdout as a JSON array")
		sarifOut = fs.Bool("sarif", false, "write diagnostics to stdout as SARIF 2.1.0 (code-scanning upload format)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: redsoc-vet [-C dir] [-run names] [-json|-sarif] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := analyzers
	if *run != "" {
		byName := map[string]*framework.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "redsoc-vet: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}

	root, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "redsoc-vet: %v\n", err)
		return 2
	}
	pkgs, err := framework.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "redsoc-vet: %v\n", err)
		return 2
	}
	diags, err := framework.RunAnalyzers(pkgs, selected)
	if err != nil {
		fmt.Fprintf(stderr, "redsoc-vet: %v\n", err)
		return 2
	}

	switch {
	case *sarifOut:
		if err := framework.WriteSARIF(stdout, root, selected, diags); err != nil {
			fmt.Fprintf(stderr, "redsoc-vet: %v\n", err)
			return 2
		}
	case *jsonOut:
		if err := framework.WriteJSON(stdout, root, diags); err != nil {
			fmt.Fprintf(stderr, "redsoc-vet: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "redsoc-vet: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
