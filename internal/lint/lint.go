// Package lint implements richnote-lint, the repo's in-house static
// analyzers. They machine-check the invariants that keep the system
// deterministic, goroutine-confined and budget-correct — properties that
// previously lived only in doc comments (network.Model is not
// concurrency-safe; RNGs are injected and seeded; radio overhead is
// charged only after an affordable selection is confirmed).
//
// The Analyzer/Pass shapes deliberately mirror
// golang.org/x/tools/go/analysis so each analyzer can be ported to a
// real multichecker unchanged if that dependency is ever vendored; the
// build here is stdlib-only, so the driver loads packages with
// `go list -json`, parses them with go/parser and type-checks them with
// go/types + go/importer in source mode (see typecheck.go) instead of
// go/packages.
//
// Analyses are type-aware: every Pass carries a *types.Info and a
// package-local call graph, so package references, method receivers and
// field selections resolve through the type checker rather than name
// matching. On a package with type errors the resolution maps are
// partial; analyzers degrade to their syntactic fallbacks and the
// driver reports the type-check failure as a finding of its own.
//
// Intentional violations are suppressed with a directive on the same
// line or the line directly above:
//
//	start := time.Now() //lint:allow wallclock round latency is telemetry
//
// The analyzer name and a non-empty reason are both required; the
// driver reports malformed directives as findings of their own.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strconv"
	"strings"
)

// Analyzer is one named invariant check. The shape mirrors
// x/tools/go/analysis.Analyzer minus requires/facts, which these
// checks do not need.
type Analyzer struct {
	// Name identifies the analyzer in findings and //lint:allow
	// directives.
	Name string
	// Doc is a one-paragraph description shown by richnote-lint -list.
	Doc string
	// Scope lists import-path elements the analyzer is restricted to
	// (e.g. "sim" matches .../internal/sim and any package under it).
	// Nil means every package.
	Scope []string
	// IncludeTests controls whether _test.go files are analyzed.
	IncludeTests bool
	// Run reports findings on the pass.
	Run func(*Pass)
}

// Pass hands one analyzer one type-checked package worth of files.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path (fixture directory name under
	// linttest).
	Path string
	// Files holds the syntax trees the analyzer should walk — already
	// filtered by IncludeTests. The type information below may cover a
	// superset (the whole analysis unit).
	Files []*ast.File
	// Pkg is the type-checked package; nil only when the unit was
	// built without type checking.
	Pkg *types.Package
	// TypesInfo resolves identifiers, selections and expression types
	// for the unit. Never nil, but possibly sparsely populated when
	// the package has type errors.
	TypesInfo *types.Info
	// TypeErrors lists the unit's type-check errors (empty for a clean
	// package).
	TypeErrors []error

	unit   *PackageInfo
	report func(Finding)
}

// CallGraph returns the package-local call graph for the unit the pass
// belongs to, built lazily and shared across analyzers.
func (p *Pass) CallGraph() *CallGraph {
	if p.unit == nil {
		return nil
	}
	return p.unit.CallGraph()
}

// Finding is one reported violation.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzer applies a single analyzer to one type-checked unit,
// without scope gating or //lint:allow filtering (the driver layers
// those on). files selects the syntax trees to walk; nil means every
// file in the unit. The linttest fixture runner calls this directly.
func RunAnalyzer(a *Analyzer, unit *PackageInfo, files []*ast.File) []Finding {
	if files == nil {
		files = unit.Files
	}
	info := unit.Info
	if info == nil {
		info = &types.Info{}
	}
	var out []Finding
	pass := &Pass{
		Analyzer:   a,
		Fset:       unit.Fset,
		Path:       unit.Path,
		Files:      files,
		Pkg:        unit.Pkg,
		TypesInfo:  info,
		TypeErrors: unit.TypeErrors,
		unit:       unit,
		report:     func(f Finding) { out = append(out, f) },
	}
	a.Run(pass)
	return out
}

// All returns the full richnote-lint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		SeedRand, WallClock, SpendCheck, Confined, AtomicCheck,
		AllocFree, UnitCheck,
	}
}

// ---- typed resolution helpers ----------------------------------------

// pkgCall matches call against package-level calls pkg.Fn for any of
// the given import paths and returns the function name. Resolution goes
// through the type information when the callee resolved; on packages
// with type errors it falls back to the file's import table, which is
// exact for unshadowed references.
func (p *Pass) pkgCall(f *ast.File, call *ast.CallExpr, importPaths ...string) (string, bool) {
	if fn := calleeOf(p.TypesInfo, call); fn != nil {
		if fn.Pkg() == nil {
			return "", false
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() != nil {
			return "", false
		}
		for _, path := range importPaths {
			if fn.Pkg().Path() == path {
				return fn.Name(), true
			}
		}
		return "", false
	}
	// Callee did not resolve (type errors, or a selector go/types gave
	// up on): fall back to the syntactic import-table match.
	if p.typesResolved(call.Fun) {
		return "", false
	}
	return pkgFuncCall(f, call, importPaths...)
}

// typesResolved reports whether the expression's operands resolved in
// the unit's Uses map — the signal separating "resolved to something
// that is not the package function we asked about" from "not resolved
// at all" for fallback decisions.
func (p *Pass) typesResolved(e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		_, ok := p.TypesInfo.Uses[v]
		return ok
	case *ast.SelectorExpr:
		_, ok := p.TypesInfo.Uses[v.Sel]
		return ok
	}
	return false
}

// pkgNameOf resolves an identifier used as a selector qualifier to the
// import path it names, with the same typed-then-syntactic fallback as
// pkgCall.
func (p *Pass) pkgNameOf(f *ast.File, id *ast.Ident) (string, bool) {
	if obj, ok := p.TypesInfo.Uses[id]; ok {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return "", false
		}
		return pn.Imported().Path(), true
	}
	for _, spec := range f.Imports {
		ip, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		if importedAs(f, ip) == id.Name {
			return ip, true
		}
	}
	return "", false
}

// typeOf returns the type of an expression, or nil when the unit's
// information does not cover it.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// fieldVarOf resolves a selector (or plain identifier, for selections
// inside method bodies) to the struct field object it denotes, or nil.
func fieldVarOf(info *types.Info, e ast.Expr) *types.Var {
	switch v := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[v.Sel].(*types.Var); ok && obj.IsField() {
			return obj
		}
	case *ast.Ident:
		if obj, ok := info.Uses[v].(*types.Var); ok && obj.IsField() {
			return obj
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Alias:
			t = types.Unalias(v)
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

// receiverTypeName returns the defined type a method's receiver belongs
// to, or nil for functions.
func receiverTypeName(fn *types.Func) *types.TypeName {
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj()
	}
	return nil
}

// isStdlibPath reports whether an import path belongs to the standard
// library (no dot in the first path element).
func isStdlibPath(path string) bool {
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	return !strings.Contains(first, ".")
}

// ---- syntactic helpers (fallbacks and unitcheck) ----------------------

// importedAs returns the local name under which f imports importPath,
// or "" if the file does not import it. Blank and dot imports return ""
// (neither can appear as a selector qualifier).
func importedAs(f *ast.File, importPath string) string {
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p != importPath {
			continue
		}
		if spec.Name != nil {
			if n := spec.Name.Name; n != "_" && n != "." {
				return n
			}
			continue
		}
		return defaultImportName(p)
	}
	return ""
}

// defaultImportName guesses the package name of an unaliased import:
// the last path element, skipping a major-version suffix such as /v2.
func defaultImportName(importPath string) string {
	base := path.Base(importPath)
	if len(base) > 1 && base[0] == 'v' && strings.TrimLeft(base[1:], "0123456789") == "" {
		base = path.Base(path.Dir(importPath))
	}
	return base
}

// pkgRef reports whether id is a reference to one of the given import
// paths in f, returning the matched path.
func pkgRef(f *ast.File, id *ast.Ident, importPaths ...string) (string, bool) {
	for _, p := range importPaths {
		if name := importedAs(f, p); name != "" && name == id.Name {
			return p, true
		}
	}
	return "", false
}

// pkgFuncCall matches call against qualified calls pkg.Fn for any of
// the given import paths and returns the function name.
func pkgFuncCall(f *ast.File, call *ast.CallExpr, importPaths ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := pkgRef(f, id, importPaths...); !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

// walkStack visits every node under root with its ancestor stack
// (outermost first, excluding the node itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingReceiver returns the base type name of the method receiver
// the stack is inside, or "" when the innermost declared function is
// not a method. Function literals inherit the enclosing method: a
// closure written inside a shard method still runs as shard code.
func enclosingReceiver(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		decl, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		if decl.Recv == nil || len(decl.Recv.List) == 0 {
			return ""
		}
		return baseTypeName(decl.Recv.List[0].Type)
	}
	return ""
}

// enclosingFuncDecl returns the innermost FuncDecl on the stack.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if decl, ok := stack[i].(*ast.FuncDecl); ok {
			return decl
		}
	}
	return nil
}

// baseTypeName unwraps pointers and type parameters to the receiver's
// defined type name.
func baseTypeName(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.IndexListExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
