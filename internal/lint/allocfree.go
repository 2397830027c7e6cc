package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllocFreeRule guards the PR 9 batching optimization the way the
// nogoroutine rule guards the PR 4 memo caches: BenchmarkEngineStep is
// budgeted at 0 allocs/op (BENCH_PR9.json), and this rule fails the
// build at review time — before the benchmark gate even runs — when a
// change introduces an allocation site into the Engine.Step/StepN call
// graph. It flags, inside functions reachable from sim.Engine.Step or
// sim.Engine.StepN:
//
//   - slice and map composite literals (and &composite pointers, which
//     escape by construction),
//   - make and new,
//   - append (which may grow, and therefore allocate),
//   - func literals that capture enclosing variables (closure
//     allocation),
//   - passing a non-pointer concrete value where a parameter is an
//     interface (boxing).
//
// Struct value literals are not flagged — they live on the stack or in
// their destination — and calls into fmt and errors are exempt from
// the boxing check, because error paths abort the run and their cost
// is irrelevant. Sites that are genuinely amortized (arena growth,
// one-time presizing) carry //greensprint:allow(allocfree) directives
// with justifications; `greensprint-lint -audit` lists them all.
//
// Reachability comes from the pass's Program index: static calls and
// method values resolve through types.Info.Uses, and a call through an
// interface method fans out to every concrete type in the step-graph
// packages that implements the interface. Packages outside the step
// graph (and the standard library) end the walk — the rule cannot
// report into them anyway. The over-approximation is deliberate — a
// site that might be on the hot path is treated as on it.
type AllocFreeRule struct{}

// Name implements Rule.
func (AllocFreeRule) Name() string { return "allocfree" }

// Doc implements Rule.
func (AllocFreeRule) Doc() string {
	return "no allocation sites (composite literals, make/new, append, capturing closures, interface boxing) in the Engine.Step/StepN call graph"
}

// Applies implements Rule.
func (AllocFreeRule) Applies(pkgPath string) bool { return StepGraphPackages[pkgPath] }

// simPath is where the call-graph roots live.
const simPath = ModulePath + "/internal/sim"

// stepGraph returns the functions reachable from sim.Engine.Step and
// StepN, computing them on first use.
func (prog *Program) stepGraph() map[*types.Func]bool {
	if prog.step == nil {
		var roots []*types.Func
		for _, site := range prog.funcs {
			fn := site.fn
			if fn == nil || fn.Pkg().Path() != simPath || fn.Name() != "Step" && fn.Name() != "StepN" {
				continue
			}
			if tn := recvType(fn); tn != nil && tn.Name() == "Engine" {
				roots = append(roots, fn)
			}
		}
		prog.step = prog.reach(roots, StepGraphPackages, true)
	}
	return prog.step
}

// Check implements Rule: it scans the bodies of this package's
// reachable functions for allocation sites.
func (AllocFreeRule) Check(prog *Program, p *Package, report ReportFunc) {
	reachable := prog.stepGraph()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok || !reachable[fn] {
				continue
			}
			checkAllocBody(p, fd.Body, report)
		}
	}
}

func checkAllocBody(p *Package, body ast.Node, report ReportFunc) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch p.Info.Types[n].Type.Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "slice literal allocates on the Step hot path; hoist it to construction time or reuse a scratch buffer")
			case *types.Map:
				report(n.Pos(), "map literal allocates on the Step hot path; hoist it to construction time")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite escapes to the heap on the Step hot path; hoist the value to a reused field")
				}
			}
		case *ast.FuncLit:
			if capturesOuter(p, n) {
				report(n.Pos(), "func literal captures enclosing variables and allocates a closure on the Step hot path; hoist it or pass state explicitly")
			}
		case *ast.CallExpr:
			checkAllocCall(p, n, report)
		}
		return true
	})
}

// checkCall flags builtin allocators and interface boxing at call
// arguments.
func checkAllocCall(p *Package, call *ast.CallExpr, report ReportFunc) {
	// Builtins: make, new, append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates on the Step hot path; hoist the buffer to construction time and reuse it")
			case "new":
				report(call.Pos(), "new allocates on the Step hot path; hoist the value to a reused field")
			case "append":
				report(call.Pos(), "append may grow its backing array on the Step hot path; presize at construction time or annotate an amortized arena")
			}
			return
		}
	}

	// Boxing: a non-pointer concrete argument to an interface-typed
	// parameter heap-allocates the value. Calls into fmt and errors are
	// exempt — they sit on error paths that abort the run.
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if callee := calleeFunc(p, call); callee != nil && callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "fmt", "errors":
			return
		}
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < params.Len()-1 || !sig.Variadic():
			if i >= params.Len() {
				return
			}
			param = params.At(i).Type()
		case call.Ellipsis.IsValid():
			param = params.At(params.Len() - 1).Type()
		default:
			param = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		}
		if !types.IsInterface(param) {
			continue
		}
		at, ok := p.Info.Types[arg]
		if !ok || at.IsNil() {
			continue
		}
		argT := at.Type
		if types.IsInterface(argT) {
			continue
		}
		if _, isPtr := argT.Underlying().(*types.Pointer); isPtr {
			continue
		}
		report(arg.Pos(), "passing "+types.TypeString(argT, types.RelativeTo(p.Types))+
			" by value as an interface boxes it onto the heap on the Step hot path; pass a pointer or a concrete type")
	}
}

// calleeFunc resolves a call's static callee, if any.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// capturesOuter reports whether the func literal references a variable
// declared outside its own body (excluding package-level state) — the
// condition under which the literal allocates a closure rather than
// compiling to a plain function value.
func capturesOuter(p *Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level variable, not a capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}
