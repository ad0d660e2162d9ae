// Package hotpath machine-checks the measured performance contracts: a
// function marked //hbvet:hotpath (balance.Table.Pick, the beat paths
// through ring.SP and ring.SPSC, replayRing.frameSince) is checked —
// transitively through every same-package callee — for heap allocation
// (make/new, escaping composite literals, append growth, interface
// conversions, closures, string concatenation), lock and channel
// operations, goroutine spawns, and calls that leave the verified set: a
// callee in another package must itself be marked //hbvet:hotpath (the
// mark travels as a fact, so heartbeat's beat path may call into
// internal/ring) or belong to a small allowlist of known allocation-free
// stdlib helpers.
//
// Known, justified costs — the amortized slow-path spill, the pooled
// buffer growth — are excused line by line with
// //hbvet:allow hotpath -- <reason>, which both silences the finding and
// prunes traversal through that call edge. The same marks feed the
// benchmark gate: `tools/benchgate -require` asserts the 0 allocs/op
// numbers for the benchmarks covering these functions, so the static and
// the measured contract point at the same code.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/hbvet/internal/analysis"
)

// Marker is the annotation that puts a function under hot-path checking.
const Marker = "//hbvet:hotpath"

// Name is the analyzer's name, used in facts, allow annotations, and -run.
const Name = "hotpath"

// Analyzer checks //hbvet:hotpath functions for allocation and blocking.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "checks //hbvet:hotpath functions transitively for allocation, locks, channels, and unverified calls",
	Run:  run,
}

// allowedPkgs are stdlib packages whose functions neither allocate nor
// block: the vocabulary hot paths are built from.
var allowedPkgs = map[string]bool{
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"unsafe":          true,
	"encoding/binary": true,
}

// allowedFuncs are individually vetted stdlib helpers outside those
// packages (non-allocating themselves; a closure argument is still
// reported at its own literal).
var allowedFuncs = map[string]bool{
	"sort.Search":        true,
	"sort.SearchStrings": true,
	"sort.SearchInts":    true,
}

func run(pass *analysis.Pass) error {
	// Index every declared function and find the marked roots.
	decls := make(map[*types.Func]*ast.FuncDecl)
	var roots []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if marked(fd) {
				roots = append(roots, fn)
				// Export the mark so dependent packages may call this
				// function from their own hot paths.
				pass.Facts.Set(Name, fn.FullName(), "marked")
			}
		}
	}

	c := &checker{pass: pass, decls: decls, visited: make(map[*types.Func]bool)}
	for _, root := range roots {
		c.check(root)
	}
	return nil
}

// marked reports whether the declaration carries the hotpath marker.
func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == Marker || strings.HasPrefix(c.Text, Marker+" ") {
			return true
		}
	}
	return false
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	visited map[*types.Func]bool
}

// check walks fn's body, reporting violations and recursing into
// same-package callees. Each function is checked once per run however
// many roots reach it.
func (c *checker) check(fn *types.Func) {
	if c.visited[fn] {
		return
	}
	c.visited[fn] = true
	fd, ok := c.decls[fn]
	if !ok || fd.Body == nil {
		return
	}
	where := fn.Name()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return c.call(n, where)
		case *ast.FuncLit:
			if !c.pass.Allowed(n.Pos()) {
				c.report(n.Pos(), where, "function literal allocates a closure")
			}
			return false // its body runs only if called; the literal itself is the cost here
		case *ast.CompositeLit:
			c.composite(n, where)
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				c.report(n.Pos(), where, "channel receive blocks")
			case token.AND:
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit && !c.pass.Allowed(n.Pos()) {
					c.report(n.Pos(), where, "escaping composite literal allocates")
				}
			}
		case *ast.SendStmt:
			c.report(n.Pos(), where, "channel send blocks")
		case *ast.SelectStmt:
			c.report(n.Pos(), where, "select blocks")
			return false
		case *ast.GoStmt:
			c.report(n.Pos(), where, "starting a goroutine allocates")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.pass.TypesInfo.Types[n.X].Type) {
				c.report(n.Pos(), where, "string concatenation allocates")
			}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					c.report(n.Pos(), where, "ranging over a channel blocks")
				}
			}
		}
		return true
	})
}

func (c *checker) report(pos token.Pos, where, msg string) {
	c.pass.Reportf(pos, "hot path (via %s): %s", where, msg)
}

// call classifies one call expression. The return value tells the walker
// whether to descend into the call's children.
func (c *checker) call(call *ast.CallExpr, where string) bool {
	// An allowed line excuses the whole call: no finding, no traversal —
	// that is how the amortized slow-path spill (e.g. the beat path's
	// backlog flush) is kept out of the steady-state contract.
	if c.pass.Allowed(call.Pos()) {
		return false
	}
	fun := ast.Unparen(call.Fun)

	// Type conversion?
	if tv, ok := c.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		c.conversion(call, tv.Type, where)
		return true
	}

	// Resolve the callee object.
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
		if sel, ok := c.pass.TypesInfo.Selections[f]; ok && sel.Kind() == types.FieldVal {
			c.report(call.Pos(), where, "call through a function-valued field cannot be verified")
			return true
		}
	default:
		c.report(call.Pos(), where, "indirect call cannot be verified")
		return true
	}

	switch obj := c.pass.TypesInfo.Uses[id].(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "append":
			c.report(call.Pos(), where, "append may grow the backing array")
		case "make", "new":
			c.report(call.Pos(), where, obj.Name()+" allocates")
		case "close":
			c.report(call.Pos(), where, "channel close")
		}
		return true
	case *types.Func:
		c.funcCall(call, obj, where)
		return true
	case *types.Var:
		c.report(call.Pos(), where, "call through a function value cannot be verified")
		return true
	case *types.TypeName:
		// Conversion through a named type (already handled above for most
		// shapes); treat like a conversion.
		return true
	}
	return true
}

// funcCall handles a resolved call to fn.
func (c *checker) funcCall(call *ast.CallExpr, fn *types.Func, where string) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			c.report(call.Pos(), where, "dynamic "+fn.Name()+" call through an interface cannot be verified")
			return
		}
	}
	c.boxedArgs(call, sig, where)

	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and friends resolve above as interface calls
	}
	if pkg == c.pass.Pkg {
		c.check(fn) // same package: verify the callee transitively
		return
	}
	if _, marked := c.pass.Facts.Get(Name, fn.FullName()); marked {
		return // verified hot path in a dependency
	}
	if allowedPkgs[pkg.Path()] || allowedFuncs[pkg.Path()+"."+fn.Name()] {
		return
	}
	if pkg.Path() == "sync" {
		c.report(call.Pos(), where, "lock/synchronization operation "+fn.FullName())
		return
	}
	c.report(call.Pos(), where,
		"call into non-hotpath function "+fn.FullName()+" (mark it //hbvet:hotpath, or //hbvet:allow hotpath -- <reason>)")
}

// boxedArgs flags arguments whose concrete values convert implicitly to
// interface parameters — each such call boxes the argument.
func (c *checker) boxedArgs(call *ast.CallExpr, sig *types.Signature, where string) {
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis == token.NoPos { // f(a, b...) passes the slice itself
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := c.pass.TypesInfo.Types[arg].Type
		if at == nil || types.IsInterface(at) || isNil(c.pass.TypesInfo, arg) {
			continue
		}
		c.report(arg.Pos(), where, "argument boxes into interface parameter and allocates")
	}
}

// conversion flags converting to an interface (boxing) and the
// string/slice conversions that copy.
func (c *checker) conversion(call *ast.CallExpr, dst types.Type, where string) {
	if len(call.Args) != 1 {
		return
	}
	src := c.pass.TypesInfo.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if types.IsInterface(dst) && !types.IsInterface(src) && !isNil(c.pass.TypesInfo, call.Args[0]) {
		c.report(call.Pos(), where, "conversion to interface allocates")
		return
	}
	du, su := dst.Underlying(), src.Underlying()
	if _, toSlice := du.(*types.Slice); toSlice && isString(src) {
		c.report(call.Pos(), where, "string-to-slice conversion allocates")
	}
	if isString(dst) {
		if _, fromSlice := su.(*types.Slice); fromSlice {
			c.report(call.Pos(), where, "slice-to-string conversion allocates")
		}
	}
}

// composite flags composite literals that must heap-allocate: slice and
// map literals always do; a struct or array literal only when its address
// is taken (a plain value literal lives in registers or on the stack).
func (c *checker) composite(lit *ast.CompositeLit, where string) {
	t := c.pass.TypesInfo.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), where, "slice literal allocates")
	case *types.Map:
		c.report(lit.Pos(), where, "map literal allocates")
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
