// Package determinism enforces the replayability contract of the churn
// engine (PR 8): a scenario run is a pure function of its seed, so
// scenario code must not consult the wall clock, draw from the global
// (unseeded) math/rand source, or let Go's randomized map iteration
// order leak into anything it emits.
//
// Scope: every file of internal/churn and internal/emunet (the named
// replayable subsystems) plus any file carrying the
// `//netibis:deterministic` pragma. Within scope the analyzer flags
//
//   - time.Now / time.Since / time.Until — inject a clock, or when the
//     value measures wall-clock latency without influencing scenario
//     state, suppress with a justification;
//   - calls to package-level math/rand and math/rand/v2 functions
//     (Int, Intn, Float64, Shuffle, Perm, …) — they draw from the
//     process-global source; use a rand.New(rand.NewSource(seed))
//     instance instead (rand.New and friends are the allowed shape);
//   - range over a map whose body does more than order-insensitive
//     accumulation (set/map insertion, delete, counters, or collecting
//     into a slice that is subsequently sorted in the same function) —
//     anything else emits in map order, which differs run to run.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"netibis/internal/analysis"
)

// Pragma opts a file into determinism checking.
const Pragma = "//netibis:deterministic"

// scopedPackages are always in scope, pragma or not: their replayability
// is load-bearing for `netibis-bench -seed` and the soak harness.
var scopedPackages = []string{
	"internal/churn",
	"internal/churn/invariant",
	"internal/emunet",
}

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "ban wall-clock reads, global math/rand and map-iteration-order-dependent emission in replayable scenario code",
	Run:  run,
}

// allowedRandFuncs are the package-level math/rand names that do not
// touch the global source: constructors for seeded instances.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, suffix := range scopedPackages {
		if pass.Pkg.Path() == suffix || strings.HasSuffix(pass.Pkg.Path(), "/"+suffix) {
			inScope = true
			break
		}
	}
	for _, file := range pass.Files {
		if !inScope && !analysis.FilePragma(file, Pragma) {
			continue
		}
		checkFile(pass, file)
	}
	return nil
}

func checkFile(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.FuncDecl:
			if n.Body != nil {
				checkMapRanges(pass, n.Body)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	pkg := analysis.FuncPkgPath(fn)
	switch pkg {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "wall clock (time.%s) in deterministic scenario code: inject a clock, or justify with //nolint:netibis-determinism if the value never influences scenario state", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			return // method on a seeded *rand.Rand instance: fine
		}
		if allowedRandFuncs[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(), "global math/rand source (rand.%s) in deterministic scenario code: draw from a rand.New(rand.NewSource(seed)) instance", fn.Name())
	}
}

// checkMapRanges walks one function body; the enclosing body is needed
// to recognise the collect-keys-then-sort idiom.
func checkMapRanges(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.Types[rng.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if emission := firstEmission(pass, rng, body); emission != nil {
			pass.Reportf(emission.Pos(), "map iteration order leaks into emitted output here: collect and sort the keys first, or restrict the body to order-insensitive accumulation")
		}
		return true
	})
}

// firstEmission returns the first statement in the range body that is
// not order-insensitive, or nil when the body is safe. Safe statements:
// map/set writes, delete, counter updates, min/max folds, appends to a
// slice that is sorted later in the enclosing function, ifs/blocks made
// of safe statements, and continue.
func firstEmission(pass *analysis.Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) ast.Stmt {
	var check func(list []ast.Stmt) ast.Stmt
	check = func(list []ast.Stmt) ast.Stmt {
		for _, s := range list {
			switch s := s.(type) {
			case *ast.AssignStmt:
				if safeAssign(pass, s, rng, enclosing) {
					continue
				}
				return s
			case *ast.IncDecStmt:
				continue
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn == nil {
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
							continue
						}
					}
				}
				return s
			case *ast.IfStmt:
				if bad := check(s.Body.List); bad != nil {
					return bad
				}
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					if bad := check(blk.List); bad != nil {
						return bad
					}
				} else if s.Else != nil {
					if bad := check([]ast.Stmt{s.Else}); bad != nil {
						return bad
					}
				}
				continue
			case *ast.BlockStmt:
				if bad := check(s.List); bad != nil {
					return bad
				}
				continue
			case *ast.BranchStmt:
				continue
			default:
				return s
			}
		}
		return nil
	}
	return check(rng.Body.List)
}

// safeAssign reports whether an assignment inside a map range is
// order-insensitive.
func safeAssign(pass *analysis.Pass, s *ast.AssignStmt, rng *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	// m2[k] = v — insertion into another map is order-free.
	if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if t := pass.TypesInfo.Types[ast.Unparen(lhs).(*ast.IndexExpr).X].Type; t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return true
			}
		}
	}
	// n += x, n -= x — commutative folds.
	switch s.Tok.String() {
	case "+=", "-=", "|=", "&=", "^=":
		return true
	}
	// s2 = append(s2, k) — safe iff s2 is sorted later in the function.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if target, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v := analysis.LocalVar(pass.TypesInfo, target); v != nil {
					return sortedLater(pass, v, rng, enclosing)
				}
			}
		}
	}
	return false
}

// sortedLater reports whether v is passed to a sort.* or slices.Sort*
// call positioned after the range statement in the enclosing body.
func sortedLater(pass *analysis.Pass, v *types.Var, rng *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		pkg := analysis.FuncPkgPath(fn)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok {
					if analysis.LocalVar(pass.TypesInfo, id) == v {
						found = true
					}
				}
				return !found
			})
		}
		return !found
	})
	return found
}
