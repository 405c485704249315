// Package hotalloc enforces the repository's zero-steady-state-
// allocation contract: a function annotated //hybridrel:hotpath must
// not contain the heap-allocating constructs that killed the pre-PR5
// ingest throughput. The annotated set is the ingest and mining hot
// chain — internal/mrt visitor decode, internal/bgp scratch reuse,
// internal/dataset AddPath over its AS-number path arena,
// internal/infer/communities PathVotes, internal/intern table ops, and
// the internal/serve per-request lookups — plus whatever future hot
// code opts in.
//
// Flagged inside a hot function:
//
//   - make(map[...]...)                     — map allocation
//   - map/slice composite literals          — []T{...}, map[K]V{...}
//   - non-constant string concatenation     — s1 + s2, s +=
//   - string<->[]byte/[]rune conversions    — string(b), []byte(s)
//   - calls into package fmt                — fmt.Sprintf and friends
//   - closures capturing enclosing state    — each capture forces a
//     heap-allocated closure (a capture-free func literal is a static
//     function value and stays legal)
//
// Deliberately legal: append (amortized growth is the arena pattern),
// make of slices/chans (scratch (re)sizing), struct literals and new
// (escape analysis keeps the hot ones on the stack, and the
// allocs-per-op pin tests are the backstop), and fmt.Errorf directly
// inside a return statement — constructing the error that exits the
// hot path is the cold path by definition.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"hybridrel/tools/hybridlint/internal/analysis"
)

// Annotation marks a function as part of the zero-alloc hot chain.
const Annotation = "//hybridrel:hotpath"

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid heap-allocating constructs in //hybridrel:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHot(fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// isHot reports whether the function carries the hotpath annotation.
// Directive-style comments live in Doc.List but are excluded from
// Doc.Text, so scan the raw list.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Annotation || strings.HasPrefix(c.Text, Annotation+" ") {
			return true
		}
	}
	return false
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// returnDepth tracks whether the walk is inside a return statement,
	// where fmt.Errorf is the sanctioned cold-path exit.
	var walk func(n ast.Node, inReturn bool)
	walk = func(n ast.Node, inReturn bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				walk(res, true)
			}
			return
		case *ast.CallExpr:
			checkCall(pass, n, inReturn)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "hot path allocates a map literal")
				case *types.Slice:
					pass.Reportf(n.Pos(), "hot path allocates a slice literal")
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isString(info, n) && !isConst(info, n) {
				pass.Reportf(n.Pos(), "hot path concatenates strings (allocates)")
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isString(info, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "hot path concatenates strings (allocates)")
			}
		case *ast.FuncLit:
			checkCaptures(pass, fd, n)
		}
		// Generic descent for everything not special-cased above.
		children(n, func(c ast.Node) { walk(c, inReturn) })
	}
	for _, stmt := range fd.Body.List {
		walk(stmt, false)
	}
}

// children invokes fn once per direct child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, inReturn bool) {
	info := pass.TypesInfo

	// make(map[...]...) — make of slices and chans stays legal.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && len(call.Args) > 0 {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if t := info.TypeOf(call.Args[0]); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(call.Pos(), "hot path allocates a map with make")
				}
			}
		}
		return
	}

	// Conversions between string and []byte/[]rune copy their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.TypeOf(call.Args[0])
		if to != nil && from != nil && !isConst(info, call.Args[0]) {
			if isStringType(to) && isByteOrRuneSlice(from) {
				pass.Reportf(call.Pos(), "hot path converts []byte/[]rune to string (allocates a copy)")
			}
			if isByteOrRuneSlice(to) && isStringType(from) {
				pass.Reportf(call.Pos(), "hot path converts string to []byte/[]rune (allocates a copy)")
			}
		}
		return
	}

	// Calls into package fmt. fmt.Errorf directly inside a return is
	// the cold-path exit and stays legal.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if pkg, ok := info.Uses[x].(*types.PkgName); ok && pkg.Imported().Name() == "fmt" {
				if inReturn && sel.Sel.Name == "Errorf" {
					return
				}
				pass.Reportf(call.Pos(), "hot path calls fmt.%s (allocates; only fmt.Errorf in a return statement is exempt)", sel.Sel.Name)
			}
		}
	}
}

// checkCaptures reports each variable a function literal captures from
// the enclosing hot function.
func checkCaptures(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	info := pass.TypesInfo
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || reported[obj] || obj.IsField() {
			return true
		}
		// Captured: declared inside the hot function but outside the
		// literal. Package-level vars are not captures.
		if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			reported[obj] = true
			pass.Reportf(lit.Pos(), "hot path closure captures %q (heap-allocates the closure)", obj.Name())
		}
		return true
	})
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isStringType(t)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
