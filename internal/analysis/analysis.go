// Package analysis is the project's static-analysis framework: a
// minimal, dependency-free re-statement of the golang.org/x/tools
// go/analysis API (Analyzer, Pass, Diagnostic) built on the standard
// library's go/ast and go/types. The repository deliberately has no
// external dependencies, so the framework is grown here rather than
// imported; the API shape is kept close to x/tools so the analyzers
// could migrate to the upstream driver without rewriting.
//
// The analyzers in the subpackages mechanically enforce invariants the
// compiler cannot see and that are otherwise guarded only by review:
//
//   - bufref: wire.Buf ownership — a consumed Buf is dead, every
//     error return releases what the function acquired, a Buf retained
//     once is not released per loop iteration.
//   - netdeadline: every read on a connection reachable before attach
//     or peer authentication completes is deadline-bounded
//     (//netibis:preauth marks the trust boundary).
//   - determinism: no wall clock, no global math/rand, no
//     map-iteration-order-dependent emission in replayable scenario
//     code (internal/churn, internal/emunet, //netibis:deterministic).
//   - metricname: the metric name that actually reaches an obs
//     registration — through consts, concatenation or fmt.Sprintf —
//     satisfies obs.CheckName and the per-kind suffix rules.
//   - locksafe: no blocking channel operations or sleeps while a
//     sync.Mutex is held, no lock-containing value copies through the
//     assignment shapes stock vet's copylocks does not look at.
//
// cmd/netibis-vet is the driver: a single checker run over package
// patterns.
//
// Suppression: a finding is silenced by a `//nolint:netibis-<name>`
// comment on the flagged line (or the line above) with a non-empty
// justification after a second `//`. The driver rejects justification-
// free nolint comments — an unexplained suppression is itself a
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run inspects a single package
// via the Pass and reports findings through pass.Report; the returned
// error aborts the whole run (reserved for internal failures, not
// findings).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// nolint:netibis-<Name> suppression comments. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description: first line is the summary.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// Pass holds the per-package inputs an Analyzer's Run inspects and the
// Report sink it writes findings to. One Pass is built per (analyzer,
// package) pair; passes share the package's parsed and type-checked
// form.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a human-readable message.
// The analyzer name is attached by the driver.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a driver-level diagnostic: a Diagnostic resolved to a
// position and tagged with the analyzer that produced it.
type Finding struct {
	Analyzer string
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (netibis-%s)", f.Posn, f.Message, f.Analyzer)
}
