package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockGuardPackages is the concurrent domain: the packages where more
// than one goroutine touches shared structs (the daemon's tick loop vs
// its HTTP handlers, the collector's scrape path vs the step path).
// Everything under internal/sim and its dependencies is single-threaded
// by design (see StepGraphPackages) and stays out of scope.
var LockGuardPackages = map[string]bool{
	ModulePath + "/internal/core":    true,
	ModulePath + "/internal/obs":     true,
	ModulePath + "/cmd/greensprintd": true,
}

// LockGuardRule enforces the repository's guarded-field convention in
// the concurrent packages: a struct field that sits below a
// sync.Mutex/RWMutex field (or carries an explicit "guarded by <mu>"
// comment) may only be read or written
//
//   - inside a method of the owning type whose body locks that mutex
//     (Lock or RLock — the rule is flow-insensitive and trusts the
//     matching Unlock),
//   - inside a method whose name ends in "Locked" or whose doc comment
//     documents the precondition ("c.mu must be held", "caller holds
//     the lock", "while holding …"), or
//   - through a variable local to the enclosing function (the
//     pre-publication window: a constructor filling in a struct nobody
//     else can see yet).
//
// This is the comment convention PRs 3 and 8 fixed races against by
// hand (Q-table serving buffered under the controller mutex, shutdown
// joining the tick goroutine); the rule makes the convention
// mechanical. Positional guarding follows the standard Go layout — a
// mutex guards the fields declared after it, until the next mutex; an
// explicit "guarded by <name>" field comment overrides position.
type LockGuardRule struct{}

// Name implements Rule.
func (LockGuardRule) Name() string { return "lockguard" }

// Doc implements Rule.
func (LockGuardRule) Doc() string {
	return "mutex-guarded struct fields in the concurrent packages may only be accessed while the documented mutex is held"
}

// Applies implements Rule.
func (LockGuardRule) Applies(pkgPath string) bool { return LockGuardPackages[pkgPath] }

// guardInfo records one guarded field's contract.
type guardInfo struct {
	owner *types.TypeName // struct type the field belongs to
	mutex *types.Var      // the guarding mutex field
}

// Check implements Rule.
func (LockGuardRule) Check(_ *Program, p *Package, report ReportFunc) {
	guards := collectGuards(p)
	if len(guards) == 0 {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(p, fd, guards, report)
		}
	}
}

// collectGuards walks the package's struct declarations and maps each
// guarded field variable to its contract.
func collectGuards(p *Package) map[*types.Var]guardInfo {
	guards := map[*types.Var]guardInfo{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := p.Info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			// First pass: the struct's mutex fields by name.
			mutexes := map[string]*types.Var{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					v, ok := p.Info.Defs[name].(*types.Var)
					if ok && isMutex(v.Type()) {
						mutexes[v.Name()] = v
					}
				}
			}
			if len(mutexes) == 0 {
				return true
			}
			// Second pass: positional guarding with comment override.
			var current *types.Var
			for _, field := range st.Fields.List {
				if len(field.Names) > 0 {
					if v, ok := p.Info.Defs[field.Names[0]].(*types.Var); ok && isMutex(v.Type()) {
						current = v
						continue
					}
				}
				guard := current
				if name := guardedByComment(field); name != "" {
					guard = mutexes[name] // unknown name → unguarded, surfaced by review
				}
				if guard == nil {
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						guards[v] = guardInfo{owner: tn, mutex: guard}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardedByComment extracts the mutex name from a "guarded by <name>"
// field comment (doc or trailing), or "".
func guardedByComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		text := strings.ToLower(cg.Text())
		i := strings.Index(text, "guarded by ")
		if i < 0 {
			continue
		}
		rest := strings.TrimSpace(text[i+len("guarded by "):])
		end := strings.IndexFunc(rest, func(r rune) bool {
			return !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
		})
		if end < 0 {
			end = len(rest)
		}
		if end > 0 {
			return rest[:end]
		}
	}
	return ""
}

// isMutex reports whether t is sync.Mutex, sync.RWMutex or a pointer
// to one.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// checkFunc reports guarded-field accesses in fd that hold no
// certification.
func checkFunc(p *Package, fd *ast.FuncDecl, guards map[*types.Var]guardInfo, report ReportFunc) {
	// Which mutex field vars does this body lock (c.mu.Lock(),
	// s.reg.mu.RLock(), …)?
	locked := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok {
			if v, ok := p.Info.Uses[inner.Sel].(*types.Var); ok && isMutex(v.Type()) {
				locked[v] = true
			}
		}
		return true
	})

	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	recv := recvType(fn)
	certified := strings.HasSuffix(fd.Name.Name, "Locked") || heldDoc(fd.Doc)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		g, ok := guards[v]
		if !ok {
			return true
		}
		if recv == g.owner {
			if certified || locked[g.mutex] {
				return true
			}
			report(sel.Sel.Pos(), "field "+g.owner.Name()+"."+v.Name()+" is guarded by "+
				g.mutex.Name()+" but method "+fd.Name.Name+" neither locks it nor is documented as called with it held")
			return true
		}
		// Outside the owner's methods: allowed only through a variable
		// local to this function (pre-publication construction).
		if base := spineBase(sel); base != nil {
			if bv, ok := p.Info.Uses[base].(*types.Var); ok &&
				bv.Pos() > fd.Body.Pos() && bv.Pos() < fd.Body.End() {
				return true
			}
		}
		if locked[g.mutex] {
			return true
		}
		report(sel.Sel.Pos(), "field "+g.owner.Name()+"."+v.Name()+" is guarded by "+
			g.mutex.Name()+" but accessed outside "+g.owner.Name()+"'s methods without holding it")
		return true
	})
}

// heldDoc reports whether a doc comment documents the lock-held
// precondition.
func heldDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	text := strings.ToLower(doc.Text())
	return strings.Contains(text, "must be held") ||
		strings.Contains(text, "caller holds") ||
		strings.Contains(text, "while holding")
}

// spineBase walks x.f.g[i].h down to the root identifier.
func spineBase(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}
