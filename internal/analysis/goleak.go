package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak flags goroutine-leak shapes the serving stack must never grow:
//
//   - `time.After` inside a loop: each iteration arms a timer the
//     runtime cannot collect until it fires; a tight retry loop pins an
//     unbounded number of them. Use time.NewTimer and reuse it.
//   - A goroutine whose body contains an unconditional `for {}` loop
//     with no exit path. Exits are return, goto, labeled break, a plain
//     break at the loop's own level, panic, os.Exit, or runtime.Goexit.
//     A plain `break` inside a select or switch exits only the select —
//     the classic break-leaves-select-not-the-loop bug — so it does not
//     count.
//   - A goroutine sending on an unbuffered channel whose only receive
//     in the launching function sits in a multi-way select (or there is
//     no receive at all): if the receiver takes another arm and moves
//     on, the sender blocks forever. Buffer the channel.
//
// Loops ranging over a channel are exempt from the exit-path rule: they
// terminate when the channel closes, which is the join protocol of a
// worker draining a job channel (the benchmark's load generator uses it).
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "goroutines must have a cancellation or join path: no time.After in loops, " +
		"no exit-free infinite loops, no unbuffered sends the receiver may abandon",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		funcScopes(f, func(body *ast.BlockStmt) {
			goleakTimeAfter(pass, body)
			goleakGoroutines(pass, decls, body)
			goleakUnbufferedSends(pass, body)
		})
	}
	return nil
}

// goleakTimeAfter flags time.After calls inside any loop of the scope.
func goleakTimeAfter(pass *Pass, body *ast.BlockStmt) {
	reported := map[token.Pos]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			loopBody = loop.Body
		case *ast.RangeStmt:
			loopBody = loop.Body
		default:
			return true
		}
		inspectShallow(loopBody, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgCall(pass, call, timePath); ok && name == "After" && !reported[call.Pos()] {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(), "time.After in a loop arms a new timer per iteration; use time.NewTimer and reuse it")
			}
			return true
		})
		return true
	})
}

// goleakGoroutines flags `go` statements whose body (a function literal,
// or a same-package function) contains an unconditional infinite loop
// with no exit path.
func goleakGoroutines(pass *Pass, decls map[types.Object]*ast.FuncDecl, body *ast.BlockStmt) {
	inspectShallow(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			if loop := exitFreeLoop(lit.Body); loop != nil {
				pass.Reportf(loop.Pos(), "goroutine loop has no exit path: no return, labeled break, or break at loop level (break inside select/switch does not leave the loop)")
			}
			return true
		}
		obj := calleeObject(pass, g.Call)
		if fd, ok := decls[obj]; ok {
			if loop := exitFreeLoop(fd.Body); loop != nil {
				pass.Reportf(g.Pos(), "goroutine runs %s, whose infinite loop has no exit path", obj.Name())
			}
		}
		return true
	})
}

// exitFreeLoop returns the first `for {}` loop in body (not descending
// into nested function literals) that has no exit path, or nil.
func exitFreeLoop(body *ast.BlockStmt) *ast.ForStmt {
	var found *ast.ForStmt
	inspectShallow(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if !stmtsHaveExit(loop.Body.List, false) {
			found = loop
			return false
		}
		return true
	})
	return found
}

// stmtsHaveExit reports whether any statement escapes the enclosing
// loop. nested marks statements inside a construct that captures a plain
// break (select, switch, inner loop).
func stmtsHaveExit(list []ast.Stmt, nested bool) bool {
	for _, s := range list {
		if stmtHasExit(s, nested) {
			return true
		}
	}
	return false
}

func stmtHasExit(s ast.Stmt, nested bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return s.Label != nil || !nested
		case token.GOTO:
			return true
		}
		return false
	case *ast.ExprStmt:
		return terminalCall(s.X)
	case *ast.LabeledStmt:
		return stmtHasExit(s.Stmt, nested)
	case *ast.BlockStmt:
		return stmtsHaveExit(s.List, nested)
	case *ast.IfStmt:
		if stmtsHaveExit(s.Body.List, nested) {
			return true
		}
		if s.Else != nil {
			return stmtHasExit(s.Else, nested)
		}
		return false
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok && stmtsHaveExit(cc.Body, true) {
				return true
			}
		}
		return false
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok && stmtsHaveExit(cc.Body, true) {
				return true
			}
		}
		return false
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && stmtsHaveExit(cc.Body, true) {
				return true
			}
		}
		return false
	case *ast.ForStmt:
		return stmtsHaveExit(s.Body.List, true)
	case *ast.RangeStmt:
		return stmtsHaveExit(s.Body.List, true)
	}
	return false
}

// terminalCall reports whether expr is a call that never returns: panic,
// os.Exit, runtime.Goexit, or log.Fatal*.
func terminalCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "os":
			return fun.Sel.Name == "Exit"
		case "runtime":
			return fun.Sel.Name == "Goexit"
		case "log":
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "Fatalln":
				return true
			}
		}
	}
	return false
}

// goleakUnbufferedSends flags goroutine sends on locally-made unbuffered
// channels whose receive is not guaranteed to run.
func goleakUnbufferedSends(pass *Pass, body *ast.BlockStmt) {
	// Unbuffered channels made in this scope.
	unbuffered := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !makesUnbufferedChan(pass, call) {
			return
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				unbuffered[obj] = true
			}
		}
	}
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	if len(unbuffered) == 0 {
		return
	}

	// Goroutine function literals launched in this scope; sends inside
	// them are the hazard sites, receives inside them don't guarantee
	// anything to the launcher.
	goLits := map[*ast.FuncLit]bool{}
	inspectShallow(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
		return true
	})

	type recvInfo struct {
		unconditional bool // plain <-ch, single-case select, or range
		conditional   bool // inside a select with other ways out
	}
	recvs := map[types.Object]*recvInfo{}
	escaped := map[types.Object]bool{}
	type send struct {
		pos token.Pos
		obj types.Object
	}
	var sends []send

	// chanUse classifies one identifier occurrence of a tracked channel.
	chanObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.ObjectOf(id)
		if obj != nil && unbuffered[obj] {
			return obj
		}
		return nil
	}
	note := func(obj types.Object) *recvInfo {
		ri := recvs[obj]
		if ri == nil {
			ri = &recvInfo{}
			recvs[obj] = ri
		}
		return ri
	}

	// Walk the whole function (including nested literals) classifying
	// every occurrence. selDepth tracks enclosing multi-way selects;
	// goDepth tracks enclosing goroutine literals.
	var walk func(n ast.Node, selConditional bool, inGo bool)
	walk = func(n ast.Node, selConditional bool, inGo bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Recurse manually so inGo tracks goroutine literals.
				if n.Body != nil {
					walk(n.Body, selConditional, inGo || goLits[n])
				}
				return false
			case *ast.SelectStmt:
				multi := len(n.Body.List) >= 2
				for _, c := range n.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok {
						continue
					}
					if cc.Comm != nil {
						walk(cc.Comm, selConditional || multi, inGo)
					}
					for _, s := range cc.Body {
						walk(s, selConditional, inGo)
					}
				}
				return false
			case *ast.SendStmt:
				if obj := chanObj(n.Chan); obj != nil {
					if inGo {
						sends = append(sends, send{pos: n.Pos(), obj: obj})
					} else {
						// A send on the launcher side is a rendezvous the
						// launcher controls; not this analyzer's hazard.
						escaped[obj] = true
					}
					walk(n.Value, selConditional, inGo)
					return false
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := chanObj(n.X); obj != nil {
						ri := note(obj)
						if inGo {
							// Receive inside another goroutine: can't
							// reason about it, treat as a guarantee.
							ri.unconditional = true
						} else if selConditional {
							ri.conditional = true
						} else {
							ri.unconditional = true
						}
						return false
					}
				}
			case *ast.RangeStmt:
				if obj := chanObj(n.X); obj != nil {
					note(obj).unconditional = true
				}
			case *ast.CallExpr:
				// close(ch), len(ch), cap(ch) are fine; any other call
				// taking the channel hands the receive duty elsewhere.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					switch id.Name {
					case "close", "len", "cap", "make":
						return true
					}
				}
				for _, arg := range n.Args {
					if obj := chanObj(arg); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					if obj := chanObj(rhs); obj != nil {
						if call, ok := ast.Unparen(rhs).(*ast.CallExpr); !ok || !makesUnbufferedChan(pass, call) {
							escaped[obj] = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if obj := chanObj(r); obj != nil {
						escaped[obj] = true
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					e := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if obj := chanObj(e); obj != nil {
						escaped[obj] = true
					}
				}
			}
			return true
		})
	}
	walk(body, false, false)

	for _, s := range sends {
		if escaped[s.obj] {
			continue
		}
		ri := recvs[s.obj]
		if ri != nil && ri.unconditional {
			continue
		}
		if ri != nil && ri.conditional {
			pass.Reportf(s.pos, "goroutine sends on unbuffered channel %s, but the receive sits in a multi-way select; if the receiver takes another arm the sender blocks forever (buffer the channel)", s.obj.Name())
		} else {
			pass.Reportf(s.pos, "goroutine sends on unbuffered channel %s with no receive in the launching function; the sender can block forever", s.obj.Name())
		}
	}
}

// makesUnbufferedChan reports whether call is make(chan T) or
// make(chan T, 0) with a constant zero capacity.
func makesUnbufferedChan(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if b, ok := pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	if len(call.Args) < 2 {
		return true
	}
	tv, ok := pass.TypesInfo.Types[call.Args[1]]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}
