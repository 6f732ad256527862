// Package metricname gates the observability naming scheme at the AST
// level: instead of grepping for "netibis_..." literals it resolves the
// metric name that actually reaches an obs registration call — through
// named consts, constant concatenation, and fmt.Sprintf over constant
// arguments — and applies obs.CheckName plus the per-kind suffix rules
// to that value. Names a literal grep cannot see (built from consts or
// concat) are checked; names it would false-match (substrings in prose)
// are not.
//
// A registration whose name argument cannot be resolved to a constant
// at analysis time is itself a finding: the registry panics on a bad
// name at runtime, so a dynamic name is an unvettable liability — hoist
// it into a const.
//
// Any other constant string in scope that looks like a metric name
// (matches ^netibis_[a-z0-9_]*$) is validated too, preserving the old
// lint's coverage of names referenced outside registration sites (e.g.
// the netibis-top scraper's panel definitions).
package metricname

import (
	"fmt"
	"go/ast"
	"go/constant"
	"regexp"
	"strings"

	"netibis/internal/analysis"
	"netibis/internal/obs"
)

// Analyzer is the metricname analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "resolve the metric name reaching each obs registration (consts, concat, Sprintf) and enforce the naming scheme on the resolved value",
	Run:  run,
}

// registrations maps obs.Registry method names to the kind their name
// argument registers; counter names must end in _total, others must
// not, matching the registry's own checkNameKind.
var registrations = map[string]obs.Kind{
	"Counter":           obs.KindCounter,
	"CounterFunc":       obs.KindCounter,
	"CounterVec":        obs.KindCounter,
	"Gauge":             obs.KindGauge,
	"GaugeFunc":         obs.KindGauge,
	"GaugeVec":          obs.KindGauge,
	"Histogram":         obs.KindHistogram,
	"RegisterHistogram": obs.KindHistogram,
}

var metricShape = regexp.MustCompile(`^netibis_[a-z0-9_]*$`)

func run(pass *analysis.Pass) error {
	if isObsPkg(pass.Pkg.Path()) {
		// The obs package itself carries scheme fragments and malformed
		// examples in error strings and docs; it is the scheme's home,
		// not its client.
		return nil
	}
	registered := map[ast.Expr]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			kind, ok := registrations[fn.Name()]
			if !ok || !analysis.IsMethodOn(fn, fn.Name(), analysis.FuncPkgPath(fn), "Registry") || !isObsPkg(analysis.FuncPkgPath(fn)) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			nameArg := call.Args[0]
			registered[nameArg] = true
			name, resolved := resolveName(pass, nameArg)
			if !resolved {
				pass.Reportf(nameArg.Pos(), "metric name does not resolve to a constant at analysis time: hoist it into a const so the naming scheme is statically checkable")
				return true
			}
			if err := checkKind(name, kind); err != nil {
				pass.Reportf(nameArg.Pos(), "%v", err)
			}
			return true
		})
	}

	// Fallback sweep: every constant metric-shaped string in the
	// package, wherever it appears, must satisfy the scheme.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok || registered[e] {
				return true
			}
			lit, ok := n.(*ast.BasicLit)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			s := constant.StringVal(tv.Value)
			if !metricShape.MatchString(s) {
				return true
			}
			if err := obs.CheckName(s); err != nil {
				pass.Reportf(lit.Pos(), "%v", err)
			}
			return true
		})
	}
	return nil
}

func isObsPkg(path string) bool {
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

// resolveName statically evaluates the name argument: go/types constant
// folding covers literals, consts and concatenation; a fmt.Sprintf call
// whose format and arguments are all constant is evaluated here.
func resolveName(pass *analysis.Pass, e ast.Expr) (string, bool) {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Sprintf" || analysis.FuncPkgPath(fn) != "fmt" || len(call.Args) == 0 {
		return "", false
	}
	var vals []any
	for i, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil {
			return "", false
		}
		if i == 0 {
			continue
		}
		switch tv.Value.Kind() {
		case constant.String:
			vals = append(vals, constant.StringVal(tv.Value))
		case constant.Int:
			v, _ := constant.Int64Val(tv.Value)
			vals = append(vals, v)
		case constant.Float:
			v, _ := constant.Float64Val(tv.Value)
			vals = append(vals, v)
		case constant.Bool:
			vals = append(vals, constant.BoolVal(tv.Value))
		default:
			return "", false
		}
	}
	format, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || format.Value == nil {
		return "", false
	}
	return fmt.Sprintf(constant.StringVal(format.Value), vals...), true
}

// checkKind applies obs.CheckName plus the counter/_total suffix rule
// (mirroring the registry's runtime checkNameKind, which is what would
// otherwise panic in production).
func checkKind(name string, kind obs.Kind) error {
	if err := obs.CheckName(name); err != nil {
		return err
	}
	total := strings.HasSuffix(name, "_total")
	if kind == obs.KindCounter && !total {
		return fmt.Errorf("metric %q: counters must end in _total", name)
	}
	if kind != obs.KindCounter && total {
		return fmt.Errorf("metric %q: only counters may end in _total", name)
	}
	return nil
}
