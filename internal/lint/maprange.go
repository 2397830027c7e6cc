package lint

import (
	"go/ast"
	"go/types"
)

// MapRangeRule flags `range` over a map type inside the deterministic
// domain: Go randomizes map iteration order, so any observable effect
// of the loop (appends, accumulation order, emitted records) varies
// run to run — exactly the bug class the dense Hybrid cell array in
// PR 4 removed. A site is accepted when the iteration result is
// sorted immediately afterwards (an ordering call — sort.Slice,
// slices.Sort, ... — later in the same block, the collect-then-sort
// idiom), when it is deterministic by construction (a map keyed by
// server.Config whose body drains each entry into its canonical
// server.Index slot — every key lands in a fixed position regardless
// of visit order), or when it carries a
// //greensprint:allow(maprange) directive with a justification that
// the loop body is order-independent.
type MapRangeRule struct{}

// Name implements Rule.
func (MapRangeRule) Name() string { return "maprange" }

// Doc implements Rule.
func (MapRangeRule) Doc() string {
	return "no unordered map iteration in the deterministic domain (sort the results or justify with an allow directive)"
}

// Applies implements Rule.
func (MapRangeRule) Applies(pkgPath string) bool { return DeterministicPackages[pkgPath] }

// Check implements Rule.
func (MapRangeRule) Check(_ *Program, p *Package, report ReportFunc) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if rs, ok := n.(*ast.RangeStmt); ok && len(stack) > 0 {
				if t := p.Info.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap &&
						!sortedAfter(p, stack[len(stack)-1], rs) &&
						!drainedByServerIndex(p, rs) {
						name := types.TypeString(t, types.RelativeTo(p.Types))
						report(rs.Pos(), "range over map (type "+name+") iterates in nondeterministic order; sort the collected keys/results or annotate with //greensprint:allow(maprange)")
					}
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// serverPkgPath is the knob-space package whose canonical index makes
// a map drain order-independent.
const serverPkgPath = ModulePath + "/internal/server"

// drainedByServerIndex reports whether the range is deterministic by
// construction: the map is keyed by server.Config and the body indexes
// by server.Index(key), so every entry lands in its canonical slot of
// a dense structure no matter which order the runtime visits keys in.
// Both the key type and the Index call are resolved through the type
// checker (types.Info), so a local shadow of the server package name
// or a different Index function does not qualify.
func drainedByServerIndex(p *Package, rs *ast.RangeStmt) bool {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	mt, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	named, ok := mt.Key().(*types.Named)
	if !ok {
		return false
	}
	if obj := named.Obj(); obj.Pkg() == nil || obj.Pkg().Path() != serverPkgPath || obj.Name() != "Config" {
		return false
	}
	keyIdent, ok := rs.Key.(*ast.Ident)
	if !ok || keyIdent.Name == "_" {
		return false
	}
	keyObj := p.Info.Defs[keyIdent]
	if keyObj == nil {
		keyObj = p.Info.Uses[keyIdent]
	}
	if keyObj == nil {
		return false
	}
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Index" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok || pn.Imported().Path() != serverPkgPath {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok && p.Info.Uses[arg] == keyObj {
			found = true
			return false
		}
		return true
	})
	return found
}

// orderingFuncs are the stdlib functions that impose an order on
// collected results — the second half of the collect-then-sort idiom.
// Only genuine ordering functions count: a lookup such as
// slices.Contains or sort.Search after the loop reads the slice, it
// does not fix the iteration order, and must not suppress a finding.
var orderingFuncs = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether a statement after the range loop, in the
// same enclosing statement list, calls an ordering function of package
// sort or slices — the collect-then-sort idiom that makes map
// iteration safe. The qualifier is resolved through types.Info.Uses to
// the imported package, so a local variable that merely shadows the
// name sort or slices does not count.
func sortedAfter(p *Package, parent ast.Node, rs *ast.RangeStmt) bool {
	var list []ast.Stmt
	switch b := parent.(type) {
	case *ast.BlockStmt:
		list = b.List
	case *ast.CaseClause:
		list = b.Body
	case *ast.CommClause:
		list = b.Body
	default:
		return false
	}
	idx := -1
	for i, st := range list {
		if st == ast.Stmt(rs) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, st := range list[idx+1:] {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
						if fns, ok := orderingFuncs[pn.Imported().Path()]; ok && fns[sel.Sel.Name] {
							found = true
							return false
						}
					}
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
