// Package netdeadline enforces the PR 5 security posture that every
// read from a connection reachable before attach or peer
// authentication completes is deadline-bounded: an attacker who opens a
// connection and then stalls must cost the daemon a timer, not a
// goroutine pinned forever.
//
// The trust boundary is declared, not guessed: functions that run
// before authentication carry a `//netibis:preauth` pragma in their doc
// comment. Inside a pre-auth function the analyzer requires every read
// call (Read, ReadByte, ReadFrame, ReadFrameBuf, ReadFrameInto, and the
// wire.Reader's ReadFull, ReadUvarint, Peek and Next; io.ReadFull) to be
// preceded — textually, in the same function — by an
// arming SetReadDeadline/SetDeadline call (clearing a deadline with
// time.Time{} does not count, nor does a deferred clear). And a
// pre-auth function may hand its conn or reader only to callees that
// are themselves marked pre-auth, so the boundary annotation cannot
// silently go stale as helpers are extracted.
//
// Many handlers are pre-auth only in a prefix: they authenticate the
// peer and then run the session loop in the same body. The analyzer
// recognises the authentication gate syntactically — a call into
// another pre-auth function that receives the conn or reader (an
// authentication sub-handshake), or a call to identity's handshake
// (identity.Initiate, identity.Respond) or to an identity.Verify*
// function (inline proof checking) — and stops checking reads and
// handoffs after it: past the gate either the peer has proven itself or
// the function is on its way out. identity's handshake functions are
// themselves pre-auth, so their own reads are checked where they are
// defined.
package netdeadline

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"netibis/internal/analysis"
)

// Pragma marks a function as running before authentication completes.
const Pragma = "//netibis:preauth"

// Analyzer is the netdeadline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "netdeadline",
	Doc:  "check that //netibis:preauth functions bound every conn read with a deadline and only pass conns to other pre-auth functions",
	Run:  run,
}

var readNames = map[string]bool{
	"Read":          true,
	"ReadByte":      true,
	"ReadFrame":     true,
	"ReadFrameBuf":  true,
	"ReadFrameInto": true,
	"ReadFull":      true,
	"ReadUvarint":   true,
	"Peek":          true,
	"Next":          true,
}

func run(pass *analysis.Pass) error {
	// Collect the pre-auth function set of this package first, so the
	// conn-passing rule can consult it.
	preauth := map[*types.Func]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.FuncPragma(fd, Pragma) {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				preauth[obj] = true
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.FuncPragma(fd, Pragma) {
				continue
			}
			checkPreauthFunc(pass, fd, preauth)
		}
	}
	return nil
}

func checkPreauthFunc(pass *analysis.Pass, fd *ast.FuncDecl, preauth map[*types.Func]bool) {
	gate := gatePos(pass, fd, preauth)
	armed := token.NoPos // position of the first arming deadline call

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred SetReadDeadline(time.Time{}) clears on exit; it
			// must not satisfy the requirement, and a deferred arming
			// call runs too late to bound anything in this body.
			return false
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if gate != token.NoPos && n.Pos() > gate {
				return true // past the authentication gate: post-auth code
			}
			sel, _ := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			name := calleeName(n)
			switch {
			case name == "SetReadDeadline" || name == "SetDeadline":
				if len(n.Args) == 1 && !isZeroTime(pass, n.Args[0]) {
					if armed == token.NoPos || n.Pos() < armed {
						armed = n.Pos()
					}
				}
			case readNames[name] && isConnRead(pass, n, sel):
				if armed == token.NoPos || n.Pos() < armed {
					pass.Reportf(n.Pos(), "pre-auth read without a preceding SetReadDeadline in %s: an unauthenticated peer can stall this goroutine forever", fd.Name.Name)
				}
			default:
				checkConnHandoff(pass, n, fd, preauth)
			}
		}
		return true
	})
}

// gatePos finds the position where fd stops being pre-auth: the first
// call to a same-package pre-auth function that receives the conn or
// reader (an authentication sub-handshake), to identity's handshake, or
// to an identity.Verify* function (inline proof checking). token.NoPos
// when the whole body is pre-auth.
func gatePos(pass *analysis.Pass, fd *ast.FuncDecl, preauth map[*types.Func]bool) token.Pos {
	gate := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		isGate := false
		if preauth[fn] {
			for _, arg := range call.Args {
				t := pass.TypesInfo.Types[arg].Type
				if t != nil && (hasMethod(t, "SetReadDeadline") || isWireReader(t)) {
					isGate = true
					break
				}
			}
		}
		if pkg := analysis.FuncPkgPath(fn); (pkg == "internal/identity" || strings.HasSuffix(pkg, "/identity")) &&
			(strings.HasPrefix(fn.Name(), "Verify") || fn.Name() == "Initiate" || fn.Name() == "Respond") {
			isGate = true
		}
		if isGate && (gate == token.NoPos || call.Pos() < gate) {
			gate = call.Pos()
		}
		return true
	})
	return gate
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isZeroTime matches the literal time.Time{} (deadline clear).
func isZeroTime(pass *analysis.Pass, e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[cl]
	return ok && analysis.IsNamedType(tv.Type, "time", "Time")
}

// isConnRead reports whether the call reads from a network conn or a
// frame reader over one: a method on something satisfying net.Conn (has
// SetReadDeadline), a method on wire.Reader, or io.ReadFull over
// either. Reads from pure in-memory sources don't need deadlines.
func isConnRead(pass *analysis.Pass, call *ast.CallExpr, sel *ast.SelectorExpr) bool {
	if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil && fn.Name() == "ReadFull" && analysis.FuncPkgPath(fn) == "io" {
		if len(call.Args) >= 1 {
			return isConnish(pass.TypesInfo.Types[call.Args[0]].Type)
		}
		return false
	}
	if sel == nil {
		return false
	}
	return isConnish(pass.TypesInfo.Types[sel.X].Type)
}

// isConnish reports whether t is a conn or a reader wrapping one:
// anything with a SetReadDeadline method (net.Conn and friends), the
// wire framing reader, or a bufio/byte reader is conservatively
// treated as connection-backed inside a pre-auth function.
func isConnish(t types.Type) bool {
	if t == nil {
		return false
	}
	if hasMethod(t, "SetReadDeadline") {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Name() == "Reader" && obj.Pkg() != nil && analysis.IsWirePkg(obj.Pkg().Path()) {
			return true
		}
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		// io.Reader-typed values inside a pre-auth function are assumed
		// connection-backed: that is what pre-auth code reads from.
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Read" {
				return true
			}
		}
	}
	return false
}

func hasMethod(t types.Type, name string) bool {
	sets := []*types.MethodSet{types.NewMethodSet(t)}
	if _, ok := t.(*types.Pointer); !ok {
		sets = append(sets, types.NewMethodSet(types.NewPointer(t)))
	}
	for _, ms := range sets {
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}

// checkConnHandoff enforces pragma propagation: a pre-auth function may
// pass a conn or frame reader only to same-package functions that are
// themselves marked //netibis:preauth (or to methods of the conn or
// reader itself, e.g. Close/Write, which this rule does not cover).
func checkConnHandoff(pass *analysis.Pass, call *ast.CallExpr, from *ast.FuncDecl, preauth map[*types.Func]bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return // dynamic or cross-package call: out of scope
	}
	if preauth[fn] {
		return
	}
	if strings.HasPrefix(fn.Name(), "reject") || strings.HasPrefix(fn.Name(), "encode") || strings.HasPrefix(fn.Name(), "decode") {
		// Writing a rejection or en/decoding a payload does not read.
		return
	}
	for _, arg := range call.Args {
		t := pass.TypesInfo.Types[arg].Type
		if t == nil {
			continue
		}
		if hasMethod(t, "SetReadDeadline") || isWireReader(t) {
			pass.Reportf(call.Pos(), "pre-auth function %s passes its conn/reader to %s, which is not marked %s: annotate it (and bound its reads) or stop the handoff",
				from.Name.Name, fn.Name(), Pragma)
			return
		}
	}
}

func isWireReader(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Reader" && obj.Pkg() != nil && analysis.IsWirePkg(obj.Pkg().Path())
}
