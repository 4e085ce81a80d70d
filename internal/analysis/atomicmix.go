package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix flags the two ways a raw sync/atomic discipline silently
// decays:
//
//   - A variable or field is accessed through sync/atomic in one place
//     (atomic.LoadInt64(&s.n), atomic.AddInt64(&s.n, 1), ...) and through
//     a plain load or store in another. The plain access races with the
//     atomic one — the race detector only catches the interleavings a
//     test happens to produce.
//   - A struct holding a field accessed with the raw atomic functions is
//     copied by value: receiver, parameter, assignment, or range
//     variable. The copy tears the field's publication protocol. Copies
//     of the typed atomics (atomic.Int64, atomic.Pointer[T], ...) are
//     left to go vet's copylocks pass, which sees them through noCopy.
//
// The analysis is per package: a field counts as atomically accessed if
// any file of the package touches it through sync/atomic.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "variables accessed with sync/atomic must not also be accessed plainly, " +
		"and structs holding raw-atomic fields must not be copied by value",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	// Pass 1: collect every variable reached through a raw sync/atomic
	// call (`atomic.X(&v, ...)`), and the identifier nodes of those
	// sanctioned accesses.
	raw := map[*types.Var]bool{}
	sanctioned := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := pkgCall(pass, call, "sync/atomic"); !ok || len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			var id *ast.Ident
			switch target := ast.Unparen(addr.X).(type) {
			case *ast.SelectorExpr:
				id = target.Sel
			case *ast.Ident:
				id = target
			default:
				return true
			}
			if v, ok := pass.ObjectOf(id).(*types.Var); ok {
				raw[v] = true
				sanctioned[id] = true
			}
			return true
		})
	}

	// Pass 2: flag plain uses of the same variables. Composite-literal
	// keys are construction, not access, and are exempt.
	for _, f := range pass.Files {
		exempt := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, elt := range cl.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						exempt[id] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id] || exempt[id] {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || !raw[v] {
				return true
			}
			pass.Reportf(id.Pos(), "plain access of %s, which is accessed with sync/atomic elsewhere in this package", v.Name())
			return true
		})
	}

	// Pass 3: by-value copies of structs holding raw-atomic fields.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				check := func(fl *ast.FieldList, kind string) {
					if fl == nil {
						return
					}
					for _, field := range fl.List {
						t := pass.TypeOf(field.Type)
						if t == nil {
							continue
						}
						if path := atomicPath(t, raw, nil); path != "" {
							pass.Reportf(field.Pos(), "%s of %s copies %s", kind, n.Name.Name, path)
						}
					}
				}
				check(n.Recv, "receiver")
				check(n.Type.Params, "parameter")
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue // a discard copies nothing observable
					}
					if !copiesExisting(rhs) {
						continue
					}
					t := pass.TypeOf(rhs)
					if t == nil {
						continue
					}
					if path := atomicPath(t, raw, nil); path != "" {
						pass.Reportf(rhs.Pos(), "assignment copies %s", path)
					}
				}
			case *ast.RangeStmt:
				if n.Value == nil {
					return true
				}
				t := pass.TypeOf(n.Value)
				if t == nil {
					return true
				}
				if path := atomicPath(t, raw, nil); path != "" {
					pass.Reportf(n.Value.Pos(), "range variable copies %s per iteration", path)
				}
			}
			return true
		})
	}
	return nil
}

// copiesExisting reports whether expr reads an existing value (so
// assigning it copies), as opposed to constructing a fresh one.
func copiesExisting(expr ast.Expr) bool {
	switch ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// atomicPath returns a human-readable path to the first field inside t
// that is in raw, the package's set of fields accessed through the raw
// sync/atomic functions, or "" if t holds none. A pointer stops the
// search: pointed-to atomics are shared, not copied.
func atomicPath(t types.Type, raw map[*types.Var]bool, seen []*types.Named) string {
	switch tt := t.(type) {
	case *types.Named:
		obj := tt.Obj()
		for _, s := range seen {
			if s == tt {
				return ""
			}
		}
		if inner := atomicPath(tt.Underlying(), raw, append(seen, tt)); inner != "" {
			return obj.Name() + " contains " + inner
		}
		return ""
	case *types.Alias:
		return atomicPath(types.Unalias(tt), raw, seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			f := tt.Field(i)
			if raw[f] {
				return "field " + f.Name() + ", which is accessed with sync/atomic"
			}
			if inner := atomicPath(f.Type(), raw, seen); inner != "" {
				if f.Embedded() {
					return inner
				}
				return "field " + f.Name() + " is " + inner
			}
		}
		return ""
	case *types.Array:
		return atomicPath(tt.Elem(), raw, seen)
	default:
		return ""
	}
}
