package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
)

// stateGraph is the snapshot-state part of the Program index, behind
// the statecov and wiretag rules. It reads every package-scope named
// type's method set once, looking for the Snapshot/Restore,
// Checkpoint/Restore and SnapshotState/RestoreState pairings, and
// records:
//
//   - gaps, statecov's findings: a type that carries only one half of
//     a pairing (interfaces included; methods promoted from an
//     embedded component count), and a mutable field of a paired type
//     that the snapshot side never reads or the restore side never
//     writes;
//   - the checkpoint wire graph, wiretag's input: the module-local
//     struct each snapshot method returns, every json-tagged struct
//     literal built anywhere in a pair method's call closure (which
//     catches indirect encodings like the rl Q-table's
//     tableJSON/stateJSON), and every module-local struct reachable
//     from those through fields.
type stateGraph struct {
	gaps []stateGap
	wire []*types.Named
}

// stateGap is one statecov finding, reported in pkg.
type stateGap struct {
	pkg *Package
	pos token.Pos
	msg string
}

// statePair is one concrete type carrying both halves of a pairing,
// with the transitive call closures of its two pair methods over every
// loaded package (a field restored inside a helper such as
// Rack.recount still counts as restored).
type statePair struct {
	pkg                      *Package
	named                    *types.Named
	snap, rest               *types.Func
	snapClosure, restClosure map[*types.Func]bool
}

// snapNames and restNames order the pairing method names by
// preference: the snapshot side prefers Checkpoint over Snapshot over
// SnapshotState (core.Controller has both a Checkpoint and a
// monitoring Snapshot; the checkpoint is the one whose completeness
// matters).
var snapNames = []string{"Checkpoint", "Snapshot", "SnapshotState"}
var restNames = []string{"Restore", "RestoreState"}

// stateGraph returns the pass's state graph, building it on first use.
func (prog *Program) stateGraph() *stateGraph {
	if prog.state == nil {
		prog.state = buildStateGraph(prog)
	}
	return prog.state
}

func buildStateGraph(prog *Program) *stateGraph {
	g := &stateGraph{}
	var pairs []*statePair
	for _, nt := range prog.named {
		// Concrete types read their pointer method set (the superset);
		// interfaces carry their methods on the type itself.
		iface := types.IsInterface(nt.t)
		var ms *types.MethodSet
		if iface {
			ms = types.NewMethodSet(nt.t)
		} else {
			ms = types.NewMethodSet(types.NewPointer(nt.t))
		}
		has := map[string]*types.Func{}
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if ok && (slices.Contains(snapNames, fn.Name()) || slices.Contains(restNames, fn.Name())) {
				has[fn.Name()] = fn
			}
		}
		if len(has) == 0 {
			continue
		}
		g.checkHalves(nt, has)
		snap, rest := firstOf(has, snapNames), firstOf(has, restNames)
		if iface || snap == nil || rest == nil {
			continue
		}
		pairs = append(pairs, &statePair{
			pkg: nt.pkg, named: nt.t, snap: snap, rest: rest,
			snapClosure: prog.reach([]*types.Func{snap}, nil, false),
			restClosure: prog.reach([]*types.Func{rest}, nil, false),
		})
	}
	for _, pair := range pairs {
		g.checkCoverage(prog, pair)
	}
	g.wire = wireGraph(prog, pairs)
	return g
}

// checkHalves records a gap for each pairing nt carries only one half
// of; has holds nt's pair methods by name.
func (g *stateGraph) checkHalves(nt namedType, has map[string]*types.Func) {
	half := func(method, msg string) {
		// Anchor at the method only when this package declares it, so a
		// finding never lands in a file the package does not own.
		pos := has[method].Pos()
		if !pos.IsValid() || has[method].Pkg() != nt.pkg.Types {
			pos = nt.t.Obj().Pos()
		}
		g.gaps = append(g.gaps, stateGap{nt.pkg, pos, "type " + nt.t.Obj().Name() + " declares " + method + msg})
	}
	hv := func(m string) bool { return has[m] != nil }
	if hv("Snapshot") && !hv("Restore") {
		half("Snapshot", " but no Restore; its state cannot be resumed from a checkpoint")
	}
	if hv("Checkpoint") && !hv("Restore") {
		half("Checkpoint", " but no Restore; its checkpoints cannot be resumed")
	}
	if hv("Restore") && !hv("Snapshot") && !hv("Checkpoint") {
		half("Restore", " but no Snapshot or Checkpoint; its state silently falls out of checkpoints")
	}
	if hv("SnapshotState") && !hv("RestoreState") {
		half("SnapshotState", " but no RestoreState; its state cannot be resumed from a checkpoint")
	}
	if hv("RestoreState") && !hv("SnapshotState") {
		half("RestoreState", " but no SnapshotState; its state silently falls out of checkpoints")
	}
}

// firstOf returns the first of names present in has.
func firstOf(has map[string]*types.Func, names []string) *types.Func {
	for _, n := range names {
		if fn := has[n]; fn != nil {
			return fn
		}
	}
	return nil
}

// checkCoverage records a gap for every mutable field of the pair that
// its snapshot closure or its restore closure never mentions. A mention
// is any selector resolving to the field — reads count on the snapshot
// side (the field flowing into the wire struct) and writes on the
// restore side; requiring a textual mention in the right method's
// closure is the drift check.
func (g *stateGraph) checkCoverage(prog *Program, pair *statePair) {
	mutable := mutableFields(prog, pair)
	if len(mutable) == 0 {
		return
	}
	inSnap, inRest := fieldMentions(prog, pair.snapClosure), fieldMentions(prog, pair.restClosure)
	for _, f := range mutable {
		field := "mutable field " + pair.named.Obj().Name() + "." + f.Name()
		var msg string
		switch {
		case !inSnap[f] && !inRest[f]:
			msg = field + " is not captured by " + pair.snap.Name() + " and not restored by " + pair.rest.Name()
		case !inSnap[f]:
			msg = field + " is not captured by " + pair.snap.Name()
		case !inRest[f]:
			msg = field + " is not restored by " + pair.rest.Name()
		default:
			continue
		}
		msg += "; a resumed run will drift from a straight one — add it to the wire struct or exempt it as derived with //greensprint:allow(statecov)"
		pos := f.Pos()
		if pos == token.NoPos {
			pos = pair.named.Obj().Pos()
		}
		g.gaps = append(g.gaps, stateGap{pair.pkg, pos, msg})
	}
}

// mutableFields returns, in declaration order, the fields of the pair's
// struct assigned (or incremented, or written through an index/deref
// spine) by any method of the type other than the pair methods.
// Assignments inside the pair methods themselves don't make a field
// "mutable" — Restore writing a field is the coverage being checked,
// not state drift — and constructor-only fields are configuration that
// needs no checkpointing.
func mutableFields(prog *Program, pair *statePair) []*types.Var {
	st, ok := pair.named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fields := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	mutated := map[*types.Var]bool{}
	mark := func(p *Package, lhs ast.Expr) {
		// Walk the selector spine only (x.f, x.f[i], *x.f, x.f.g …):
		// the outermost selector resolving to a field of the pair type
		// is the mutated state.
		for e := lhs; e != nil; {
			switch v := e.(type) {
			case *ast.ParenExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.SelectorExpr:
				if f, ok := p.Info.Uses[v.Sel].(*types.Var); ok && fields[f] {
					mutated[f] = true
					return
				}
				e = v.X
			default:
				return
			}
		}
	}
	for _, site := range prog.funcs {
		if site.pkg != pair.pkg || site.decl.Body == nil || recvType(site.fn) != pair.named.Obj() ||
			site.fn == pair.snap || site.fn == pair.rest {
			continue
		}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					mark(site.pkg, l)
				}
			case *ast.IncDecStmt:
				mark(site.pkg, n.X)
			}
			return true
		})
	}
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); mutated[f] {
			out = append(out, f)
		}
	}
	return out
}

// fieldMentions returns every field a selector in the closure's bodies
// resolves to.
func fieldMentions(prog *Program, closure map[*types.Func]bool) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for fn := range closure {
		site, ok := prog.decls[fn]
		if !ok || site.decl.Body == nil {
			continue
		}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if f, ok := site.pkg.Info.Uses[sel.Sel].(*types.Var); ok && f.IsField() {
				out[f] = true
			}
			return true
		})
	}
	return out
}

// wireGraph collects the checkpoint wire graph of the pairs in
// discovery order: each snapshot method's result struct, the
// json-tagged struct literals built in either closure (in declaration
// order), then everything reachable from those through fields.
func wireGraph(prog *Program, pairs []*statePair) []*types.Named {
	var wire []*types.Named
	seen := map[*types.Named]bool{}
	add := func(n *types.Named) {
		if n == nil || seen[n] || n.Obj().Pkg() == nil || !moduleLocal(n.Obj().Pkg().Path()) {
			return
		}
		seen[n] = true
		wire = append(wire, n)
	}
	for _, pair := range pairs {
		if res := pair.snap.Type().(*types.Signature).Results(); res.Len() > 0 {
			add(structOf(res.At(0).Type()))
		}
		for _, site := range prog.funcs {
			if site.decl.Body == nil || !pair.snapClosure[site.fn] && !pair.restClosure[site.fn] {
				continue
			}
			ast.Inspect(site.decl.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if named := structOf(site.pkg.Info.TypeOf(lit)); named != nil && hasJSONTag(named) {
					add(named)
				}
				return true
			})
		}
	}
	// wire doubles as the worklist: a struct appended while walking is
	// walked in turn.
	for i := 0; i < len(wire); i++ {
		st := wire[i].Underlying().(*types.Struct)
		for j := 0; j < st.NumFields(); j++ {
			add(elemStructOf(st.Field(j).Type()))
		}
	}
	return wire
}

// structOf returns t, or what t points to, when that is a named struct
// type.
func structOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if _, ok := n.Underlying().(*types.Struct); ok {
			return n
		}
	}
	return nil
}

// elemStructOf unwraps pointers, slices, arrays and map values down to
// the named struct type a wire field embeds, if any.
func elemStructOf(t types.Type) *types.Named {
	switch t := t.(type) {
	case *types.Named:
		return structOf(t)
	case *types.Pointer:
		return elemStructOf(t.Elem())
	case *types.Slice:
		return elemStructOf(t.Elem())
	case *types.Array:
		return elemStructOf(t.Elem())
	case *types.Map:
		return elemStructOf(t.Elem())
	}
	return nil
}

// hasJSONTag reports whether any field of the named struct carries a
// json struct tag — the marker that a literal built inside a snapshot
// closure is a wire encoding, not scratch.
func hasJSONTag(named *types.Named) bool {
	st := named.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if jsonTag(st, i) != "" {
			return true
		}
	}
	return false
}

// jsonTag returns the raw json tag value ("name,omitempty", "-", …) of
// field i, or "" when absent or malformed — exactly what encoding/json
// sees.
func jsonTag(st *types.Struct, i int) string {
	return reflect.StructTag(st.Tag(i)).Get("json")
}
