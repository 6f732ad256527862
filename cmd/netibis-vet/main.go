// Command netibis-vet runs the project's static-analysis suite
// (internal/analysis: bufref, netdeadline, determinism, metricname,
// locksafe) over package patterns and exits non-zero on findings. CI
// runs it as a gate:
//
//	netibis-vet ./...
//
// Findings are suppressed per line with `//nolint:netibis-<name> //
// justification`; the justification is mandatory (see DESIGN.md
// "Static analysis").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"netibis/internal/analysis"
	"netibis/internal/analysis/load"
	"netibis/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: netibis-vet [-only names] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("netibis-%s: %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := suite.Analyzers
	if *only != "" {
		analyzers = suite.ByName(strings.Split(*only, ","))
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "netibis-vet: unknown analyzer in -only %q\n", *only)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "netibis-vet:", err)
		os.Exit(2)
	}
	pkgs, err := load.Dir(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netibis-vet:", err)
		os.Exit(2)
	}
	findings, err := analysis.RunPackages(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netibis-vet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "netibis-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("netibis-vet: %d package(s) clean\n", len(pkgs))
}
