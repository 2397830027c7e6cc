package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// WireTagRule audits the checkpoint wire graph the state graph
// discovers (every struct reachable from a snapshot pairing's wire
// type, plus json-tagged literals built inside snapshot/restore
// closures — which catches indirect encodings like the rl Q-table's
// tableJSON). Four checks per wire struct:
//
//   - every exported field must carry an explicit json tag with an
//     explicit name ("-" to exclude it): the default wire name is the
//     Go identifier, so an innocent rename silently changes the
//     checkpoint schema;
//   - tag names must be unique within the struct — encoding/json drops
//     same-level conflicting fields without error;
//   - unexported fields are flagged: encoding/json skips them silently,
//     which is exactly the state-drop statecov exists to prevent;
//   - an omitempty field must be provably migration-safe. A field that
//     is only ever written conditionally (the battery degradation
//     pattern: `if b.capFade != 1 { s.CapacityFade = b.capFade }`)
//     uses the zero value as an "absent" sentinel, so some restore
//     path must compare it against zero and remap (`if fade == 0 {
//     fade = 1 }`); without that guard, a pre-migration checkpoint
//     missing the key decodes to a state no live writer ever produced.
//     Unconditionally-written omitempty fields are safe by
//     construction — their zero value round-trips to itself — as are
//     nilable fields (pointer/slice/map) and bools, whose zero is the
//     natural absent encoding.
type WireTagRule struct{}

// Name implements Rule.
func (WireTagRule) Name() string { return "wiretag" }

// Doc implements Rule.
func (WireTagRule) Doc() string {
	return "checkpoint wire structs need explicit, unique json tags and migration-safe omitempty fields"
}

// Applies implements Rule: wire structs live wherever snapshot
// pairings do.
func (WireTagRule) Applies(string) bool { return true }

// Check implements Rule.
func (WireTagRule) Check(prog *Program, p *Package, report ReportFunc) {
	for _, named := range prog.stateGraph().wire {
		if named.Obj().Pkg() == p.Types {
			checkWireStruct(prog, named, report)
		}
	}
}

func checkWireStruct(prog *Program, named *types.Named, report ReportFunc) {
	st := named.Underlying().(*types.Struct)
	tn := named.Obj().Name()
	seen := map[string]string{} // tag name → field name
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			report(f.Pos(), "unexported field "+tn+"."+f.Name()+
				" in a checkpoint wire struct is silently dropped by encoding/json; export it or move it out of the wire layout")
			continue
		}
		tag := jsonTag(st, i)
		if tag == "" {
			report(f.Pos(), "wire field "+tn+"."+f.Name()+
				" has no json tag; the wire name is the Go identifier and silently changes on rename — pin it with an explicit tag")
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "-" && opts == "" {
			continue // explicitly excluded from the wire
		}
		if name == "" {
			report(f.Pos(), "wire field "+tn+"."+f.Name()+
				" has a json tag without an explicit name; pin the wire name so a field rename cannot change the schema")
			continue
		}
		if prev, dup := seen[name]; dup {
			report(f.Pos(), "json tag "+quoteTag(name)+" on "+tn+"."+f.Name()+
				" duplicates field "+prev+"; encoding/json drops same-level conflicting fields silently")
		} else {
			seen[name] = f.Name()
		}
		if hasOption(opts, "omitempty") && !omitemptySafe(f.Type()) {
			checkOmitempty(prog, f, tn, report)
		}
	}
}

// quoteTag renders a tag name for a diagnostic message.
func quoteTag(s string) string { return "\"" + s + "\"" }

// hasOption reports whether a json tag's option list contains opt.
func hasOption(opts, opt string) bool {
	for opts != "" {
		var o string
		o, opts, _ = strings.Cut(opts, ",")
		if o == opt {
			return true
		}
	}
	return false
}

// omitemptySafe reports whether the field's type makes omitempty
// trivially round-trip: nilable types and bool have a natural absent
// encoding (and structs are never omitted at all).
func omitemptySafe(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan, *types.Signature:
		return true
	case *types.Struct:
		return true // encoding/json never omits struct values
	case *types.Basic:
		return u.Kind() == types.Bool || u.Kind() == types.UntypedBool
	}
	return false
}

// checkOmitempty flags a scalar omitempty field that is written only
// conditionally (zero = "absent" sentinel) without any zero-guard
// comparison on a restore path.
func checkOmitempty(prog *Program, f *types.Var, tn string, report ReportFunc) {
	conditional, unconditional, guarded := fieldWrites(prog, f)
	if unconditional || !conditional || guarded {
		return
	}
	report(f.Pos(), "omitempty field "+tn+"."+f.Name()+
		" is written only conditionally, so its zero value means \"absent\" — but no restore path compares it against zero to remap it;"+
		" a checkpoint missing the key will decode to a state no writer produces. Add a zero-guard on restore or drop omitempty")
}

// fieldWrites scans the functions that mention field f for writes to
// and zero-guards on it: whether any write is conditional (under an
// if/switch), whether any is unconditional (including composite-literal
// keys), and whether any function compares the field (or a local bound
// from it) against its zero value.
func fieldWrites(prog *Program, f *types.Var) (conditional, unconditional, guarded bool) {
	for _, site := range prog.funcsUsing(f) {
		c, u := writesIn(site.pkg, site.decl.Body, f)
		conditional = conditional || c
		unconditional = unconditional || u
		if zeroGuardIn(site.pkg, site.decl.Body, f) {
			guarded = true
		}
	}
	return
}

// writesIn reports conditional/unconditional writes to f inside body.
// Depth counts enclosing branch statements: a write at depth 0 always
// runs when the function does. Loops deliberately do not count — a
// per-item write inside a range body is not value-conditional; the
// sentinel pattern this check hunts is an if/switch keyed on the
// value being non-default.
func writesIn(p *Package, body ast.Node, f *types.Var) (conditional, unconditional bool) {
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			depth++
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok {
					if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v == f {
						if depth > 0 {
							conditional = true
						} else {
							unconditional = true
						}
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && v == f {
					if depth > 0 {
						conditional = true
					} else {
						unconditional = true
					}
				}
			}
		}
		d := depth
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, d)
			return false
		})
	}
	walk(body, 0)
	return
}

// zeroGuardIn reports whether body compares f — directly or through a
// local variable bound from it — against its zero value.
func zeroGuardIn(p *Package, body ast.Node, f *types.Var) bool {
	// Locals directly bound from the field (fade := s.CapacityFade,
	// including the multi-assign form).
	aliases := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			sel, ok := rhs.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if v, ok := p.Info.Uses[sel.Sel].(*types.Var); !ok || v != f {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					aliases[obj] = true
				} else if obj := p.Info.Uses[id]; obj != nil {
					aliases[obj] = true
				}
			}
		}
		return true
	})
	refersToField := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			v, ok := p.Info.Uses[e.Sel].(*types.Var)
			return ok && v == f
		case *ast.Ident:
			if obj := p.Info.Uses[e]; obj != nil {
				return aliases[obj]
			}
		}
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		default:
			return true
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if refersToField(pair[0]) && isZeroConst(p, pair[1]) {
				found = true
			}
		}
		return true
	})
	return found
}

// isZeroConst reports whether e is a compile-time zero (0, 0.0, "",
// false).
func isZeroConst(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	case constant.String:
		return constant.StringVal(tv.Value) == ""
	case constant.Bool:
		return !constant.BoolVal(tv.Value)
	}
	return false
}
