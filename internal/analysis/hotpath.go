package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathPrefix marks a function whose warm path must not allocate. The
// directive takes no arguments and must sit in the doc comment of a
// function declaration:
//
//	//spotverse:hotpath
//	func (q eventQueue) less(i, j int) bool { ... }
const hotpathPrefix = "//spotverse:hotpath"

// HotPath enforces zero-allocation warm paths: a function annotated
// //spotverse:hotpath must not allocate, in its own body or in any
// module callee reachable within hotpathDepth static calls. Flagged
// shapes: function literals (closures), make/new, slice and map
// composite literals, &T{}, go statements, non-constant string
// concatenation, string<->[]byte conversions, fmt calls, and boxing a
// non-pointer concrete value into an interface argument.
//
// Two escape hatches keep the check about the *warm* path:
//
//   - Cold-branch pruning: a block (if body, case body) whose final
//     statement returns a non-nil error is an error path and is not
//     checked, and neither is any return statement carrying a non-nil
//     error. Error construction is allowed to allocate.
//   - Amortized allocations are allowed: append and map writes grow
//     warm structures to a steady state and then stop allocating. The
//     runtime AllocsPerRun gates (alloc_test.go in each annotated
//     package) catch any append that keeps growing.
//
// Calls through interfaces, function values, and non-module packages
// (except fmt) are trusted; calls into other annotated functions are
// trusted because those are checked on their own. Findings in callees
// surface once, at the call site inside the annotated function, which
// is also where a //spotverse:allow hotpath suppression belongs.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "functions annotated //spotverse:hotpath must not allocate on their warm " +
		"path, including module callees to a bounded depth",
	RunModule: runHotPath,
}

// hotpathDepth bounds callee traversal: the annotated body is depth 0
// and calls are followed while depth < hotpathDepth.
const hotpathDepth = 3

// hotFunc is one indexed function: its declaration, the pass that owns
// it, and whether it carries the hotpath annotation.
type hotFunc struct {
	decl *ast.FuncDecl
	pass *Pass
	hot  bool
}

func runHotPath(mp *ModulePass) error {
	index := map[string]*hotFunc{}
	var hotKeys []string
	for _, pkg := range mp.Pkgs {
		pass := mp.Pass(pkg)
		// Validate directive placement: every hotpath comment must be a
		// bare directive inside some function's doc comment.
		docComments := map[*ast.Comment]bool{}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				hot := false
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if !strings.HasPrefix(c.Text, hotpathPrefix) {
							continue
						}
						docComments[c] = true
						rest := strings.TrimPrefix(c.Text, hotpathPrefix)
						if strings.TrimSpace(rest) != "" {
							pass.Reportf(c.Pos(), "spotverse:hotpath takes no arguments")
							continue
						}
						hot = true
					}
				}
				if fd.Body == nil {
					continue
				}
				fn, ok := pass.ObjectOf(fd.Name).(*types.Func)
				if !ok {
					continue
				}
				key := funcKeyOf(fn)
				index[key] = &hotFunc{decl: fd, pass: pass, hot: hot}
				if hot {
					hotKeys = append(hotKeys, key)
				}
			}
		}
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, hotpathPrefix) && !docComments[c] {
						pass.Reportf(c.Pos(), "spotverse:hotpath must be in the doc comment of a function declaration")
					}
				}
			}
		}
	}

	chk := &hotChecker{index: index, memo: map[hotMemoKey]*allocFinding{}}
	for _, key := range hotKeys {
		hf := index[key]
		chk.checkAnnotated(hf)
	}
	return nil
}

// allocFinding is the first allocation found inside a callee.
type allocFinding struct {
	what string
}

type hotMemoKey struct {
	key   string
	depth int
}

type hotChecker struct {
	index map[string]*hotFunc
	memo  map[hotMemoKey]*allocFinding
	// onPath cuts recursion: a cycle in the call graph is trusted past
	// the first visit.
	onPath map[string]bool
}

// checkAnnotated walks one annotated function, reporting every
// allocation on its warm path through its pass.
func (c *hotChecker) checkAnnotated(hf *hotFunc) {
	fn, ok := hf.pass.ObjectOf(hf.decl.Name).(*types.Func)
	if !ok {
		return
	}
	w := &hotWalk{
		chk:   c,
		pass:  hf.pass,
		sig:   fn.Type().(*types.Signature),
		depth: 0,
	}
	c.onPath = map[string]bool{funcKeyOf(fn): true}
	w.stmts(hf.decl.Body.List)
}

// callee checks the function behind key at the given depth and returns
// its first warm-path allocation, or nil if clean or trusted.
func (c *hotChecker) callee(key string, depth int) *allocFinding {
	if depth >= hotpathDepth {
		return nil
	}
	hf := c.index[key]
	if hf == nil || hf.hot || c.onPath[key] {
		return nil
	}
	mk := hotMemoKey{key: key, depth: depth}
	if f, ok := c.memo[mk]; ok {
		return f
	}
	fn, ok := hf.pass.ObjectOf(hf.decl.Name).(*types.Func)
	if !ok {
		return nil
	}
	w := &hotWalk{
		chk:     c,
		pass:    hf.pass,
		sig:     fn.Type().(*types.Signature),
		depth:   depth,
		capture: true,
		fnName:  fn.Name(),
	}
	c.onPath[key] = true
	w.stmts(hf.decl.Body.List)
	delete(c.onPath, key)
	c.memo[mk] = w.found
	return w.found
}

// hotWalk traverses one function body applying the allocation rules,
// pruning cold error branches. In capture mode (callee traversal) the
// first finding is recorded instead of reported and the walk stops.
type hotWalk struct {
	chk     *hotChecker
	pass    *Pass
	sig     *types.Signature
	depth   int
	capture bool
	fnName  string
	found   *allocFinding
}

// report handles a finding discovered directly in this body.
func (w *hotWalk) report(pos token.Pos, what string) {
	if !w.capture {
		w.pass.Reportf(pos, "%s", what)
		return
	}
	if w.found == nil {
		w.found = &allocFinding{what: what + " in " + w.fnName}
	}
}

// forward handles a finding bubbling up from a deeper callee: at the
// root it becomes a call-site report, in capture mode it passes through
// unchanged so the chain names the innermost allocation only.
func (w *hotWalk) forward(pos token.Pos, calleeName string, sub *allocFinding) {
	if !w.capture {
		w.pass.Reportf(pos, "call to %s allocates on the hot path: %s", calleeName, sub.what)
		return
	}
	if w.found == nil {
		w.found = sub
	}
}

func (w *hotWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *hotWalk) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ReturnStmt:
		if w.coldReturn(s) {
			return
		}
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		if !w.coldBlock(s.Body.List) {
			w.stmts(s.Body.List)
		}
		if s.Else != nil {
			if blk, ok := s.Else.(*ast.BlockStmt); ok && w.coldBlock(blk.List) {
				return
			}
			w.stmt(s.Else)
		}
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.caseBodies(s.Body)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			w.stmt(clause.Comm)
			if !w.coldBlock(clause.Body) {
				w.stmts(clause.Body)
			}
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Post)
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmts(s.Body.List)
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			w.expr(l)
		}
		for _, r := range s.Rhs {
			w.expr(r)
		}
		if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
			if t := w.pass.TypeOf(s.Lhs[0]); t != nil && isStringType(t) {
				w.report(s.Pos(), "string concatenation allocates")
			}
		}
	case *ast.ExprStmt:
		// panic is a crash path, not a warm path.
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return
			}
		}
		w.expr(s.X)
	case *ast.DeferStmt:
		// Open-coded defers don't allocate; the deferred call itself
		// still runs on the warm path.
		w.call(s.Call, true)
	case *ast.GoStmt:
		w.report(s.Pos(), "go statement allocates a goroutine on the hot path")
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *hotWalk) caseBodies(body *ast.BlockStmt) {
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range clause.List {
			w.expr(e)
		}
		if !w.coldBlock(clause.Body) {
			w.stmts(clause.Body)
		}
	}
}

// coldBlock reports whether a statement list is an error path: its last
// statement returns a non-nil error.
func (w *hotWalk) coldBlock(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	ret, ok := list[len(list)-1].(*ast.ReturnStmt)
	return ok && w.coldReturn(ret)
}

// coldReturn reports whether ret carries a non-nil error result.
func (w *hotWalk) coldReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	res := w.sig.Results()
	if len(ret.Results) == res.Len() {
		for i := 0; i < res.Len(); i++ {
			if !isErrorType(res.At(i).Type()) {
				continue
			}
			if id, ok := ast.Unparen(ret.Results[i]).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			return true
		}
		return false
	}
	// return f() forwarding a call's results: cold only if some result
	// expression's own type is error (a call returning (T, error) is
	// ambiguous — treat as warm and check the call).
	for _, r := range ret.Results {
		if t := w.pass.TypeOf(r); t != nil && isErrorType(t) {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			return true
		}
	}
	return false
}

func (w *hotWalk) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.FuncLit:
		w.report(e.Pos(), "function literal allocates a closure")
	case *ast.CallExpr:
		w.call(e, false)
	case *ast.CompositeLit:
		t := w.pass.TypeOf(e)
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				w.report(e.Pos(), "slice literal allocates")
				return
			case *types.Map:
				w.report(e.Pos(), "map literal allocates")
				return
			}
		}
		for _, elt := range e.Elts {
			w.expr(elt)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				w.report(e.Pos(), "&composite literal allocates")
				return
			}
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if t := w.pass.TypeOf(e); t != nil && isStringType(t) {
				if tv, ok := w.pass.TypesInfo.Types[e]; !ok || tv.Value == nil {
					w.report(e.Pos(), "string concatenation allocates")
				}
			}
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

// call applies the allocation rules to one call: conversions, builtins,
// fmt, interface boxing, and bounded module-callee traversal.
func (w *hotWalk) call(call *ast.CallExpr, deferred bool) {
	// Type conversions.
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		w.conversion(call)
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.report(call.Pos(), "make allocates")
				return
			case "new":
				w.report(call.Pos(), "new allocates")
				return
			case "panic":
				return // crash path
			case "append":
				// Amortized-zero on warm structures; the runtime
				// AllocsPerRun gate catches unbounded growth.
			}
			for _, a := range call.Args {
				w.expr(a)
			}
			return
		}
	}
	// fmt never belongs on a hot path.
	if name, ok := pkgCall(w.pass, call, "fmt"); ok {
		w.report(call.Pos(), "fmt."+name+" allocates")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	}
	fn, _ := calleeObject(w.pass, call).(*types.Func)
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			w.boxedArgs(call, sig)
		}
		if !deferred {
			key := funcKeyOf(fn)
			if sub := w.chk.callee(key, w.depth+1); sub != nil {
				w.forward(call.Pos(), fn.Name(), sub)
			}
		}
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

// conversion flags the converting call shapes that copy memory:
// string<->[]byte/[]rune and non-constant conversions to string.
func (w *hotWalk) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := w.pass.TypeOf(call)
	src := w.pass.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if tv, ok := w.pass.TypesInfo.Types[call]; ok && tv.Value != nil {
		return // constant-folded
	}
	dstU, srcU := dst.Underlying(), src.Underlying()
	if isByteOrRuneSlice(dstU) && isStringType(srcU) {
		w.report(call.Pos(), "string to byte/rune slice conversion allocates")
		return
	}
	if isStringType(dstU) && !isStringType(srcU) {
		if b, ok := srcU.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
			return
		}
		w.report(call.Pos(), "conversion to string allocates")
	}
}

// boxedArgs flags non-pointer concrete values passed where the callee
// takes an interface: the value is boxed, which allocates.
func (w *hotWalk) boxedArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 && params.Len() > 0 {
			if !call.Ellipsis.IsValid() {
				if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
			// A spread `xs...` passes the slice through; no boxing.
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := w.pass.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		if tv, ok := w.pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
			continue // constants may still box, but tiny ones are interned
		}
		w.report(arg.Pos(), "passing "+at.String()+" to an interface parameter boxes the value")
	}
}

// boxFree reports whether values of t convert to an interface without
// allocating: pointer-shaped types store directly in the iface word.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
