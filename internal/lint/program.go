package lint

import (
	"go/ast"
	"go/types"
)

// Program is the whole-program index of one Run or Audit pass, built
// once from the loaded packages. Every rule that reasons across
// package boundaries reads its facts from here instead of keeping a
// private index:
//
//   - every function declaration, in load and source order and keyed
//     by its *types.Func,
//   - every package-scope named type, for snapshot-pair discovery and
//     for fanning interface calls out to their implementers,
//   - one call-graph walker (reach) over those declarations.
//
// The facts derived from it — the Engine.Step call graph (allocfree),
// the snapshot state graph (statecov, wiretag) and the functions that
// mention each struct field (wiretag) — are computed on first use and
// shared by every rule in the pass.
type Program struct {
	funcs []funcDecl
	decls map[*types.Func]funcDecl
	named []namedType

	state  *stateGraph
	step   map[*types.Func]bool
	fields map[*types.Var][]funcDecl
}

// funcDecl is one function declaration and the package declaring it.
// fn is nil when the type checker recorded no object for the name.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
	fn   *types.Func
}

// namedType is one package-scope, non-alias named type.
type namedType struct {
	pkg *Package
	t   *types.Named
}

// newProgram indexes pkgs. Named types are listed per package in
// scope-name order, so everything discovered from them is ordered
// deterministically.
func newProgram(pkgs []*Package) *Program {
	prog := &Program{decls: map[*types.Func]funcDecl{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				site := funcDecl{pkg: p, decl: fd}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					site.fn = fn
					prog.decls[fn] = site
				}
				prog.funcs = append(prog.funcs, site)
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				prog.named = append(prog.named, namedType{p, named})
			}
		}
	}
	return prog
}

// reach returns the transitive call closure of roots: every
// *types.Func referenced (called, taken as a method value, passed as
// an argument) from a body reachable from a root. Bodies are walked
// only in the packages scope names (nil: every loaded package). An
// interface method ends the walk unless fanOut is set, in which case
// the walk continues into the matching method of every concrete type
// declared in scope that implements the interface.
func (prog *Program) reach(roots []*types.Func, scope map[string]bool, fanOut bool) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if fn == nil || out[fn] {
			continue
		}
		out[fn] = true
		if fanOut {
			queue = append(queue, prog.implementers(fn, scope)...)
		}
		site, ok := prog.decls[fn]
		if !ok || site.decl.Body == nil || scope != nil && !scope[site.pkg.Path] {
			continue
		}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if callee, ok := site.pkg.Info.Uses[id].(*types.Func); ok && !out[callee] {
				queue = append(queue, callee)
			}
			return true
		})
	}
	return out
}

// implementers resolves an interface method to the matching concrete
// method of every named type declared in scope (nil: everywhere) that
// implements the interface. It returns nil for anything but an
// interface method.
func (prog *Program) implementers(fn *types.Func, scope map[string]bool) []*types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, nt := range prog.named {
		if scope != nil && !scope[nt.pkg.Path] || types.IsInterface(nt.t) {
			continue
		}
		pt := types.NewPointer(nt.t)
		if !types.Implements(nt.t, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// funcsUsing returns, in declaration order, the functions whose bodies
// mention struct field f (a selector, or a key in a composite literal).
func (prog *Program) funcsUsing(f *types.Var) []funcDecl {
	if prog.fields == nil {
		prog.fields = map[*types.Var][]funcDecl{}
		for _, site := range prog.funcs {
			if site.decl.Body == nil {
				continue
			}
			ast.Inspect(site.decl.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := site.pkg.Info.Uses[id].(*types.Var)
				if !ok || !v.IsField() {
					return true
				}
				if l := prog.fields[v]; len(l) == 0 || l[len(l)-1].decl != site.decl {
					prog.fields[v] = append(l, site)
				}
				return true
			})
		}
	}
	return prog.fields[f]
}

// recvType returns the named type a method's receiver (T or *T) refers
// to, or nil for a plain function.
func recvType(fn *types.Func) *types.TypeName {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
