package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pkgFunc resolves an identifier use — the Sel of a qualified selector
// (time.Now) or a plain identifier bound by a dot import (import .
// "time"; Now()) — to a package-level function (never a method) of an
// imported package, returning the package path and function name. It
// covers both call sites (time.Now()) and value uses (f := time.Now),
// since either smuggles nondeterminism in.
func pkgFunc(p *Package, id *ast.Ident) (pkgPath, name string, ok bool) {
	obj, found := p.Info.Uses[id]
	if !found {
		return "", "", false
	}
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// NondetermRule forbids the ambient-nondeterminism entry points inside
// the deterministic simulation domain: wall-clock reads (time.Now,
// time.Since, time.Until), environment reads (os.Getenv, os.LookupEnv,
// os.Environ) and the process-global math/rand source. Explicitly
// seeded generators — rand.New(rand.NewSource(seed)) and the
// math/rand/v2 equivalents — are the sanctioned idiom and pass. Uses
// are resolved through types.Info, so dot-imported names (import .
// "time"; Now()) and aliased imports are caught the same as qualified
// selectors.
type NondetermRule struct{}

// Name implements Rule.
func (NondetermRule) Name() string { return "nondeterm" }

// Doc implements Rule.
func (NondetermRule) Doc() string {
	return "no wall-clock, environment or global-rand reads in the deterministic domain"
}

// Applies implements Rule.
func (NondetermRule) Applies(pkgPath string) bool { return DeterministicPackages[pkgPath] }

// randConstructors are the math/rand and math/rand/v2 package-level
// functions that build explicitly seeded generators rather than
// touching the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// Check implements Rule.
func (NondetermRule) Check(_ *Program, p *Package, report ReportFunc) {
	for _, f := range p.Files {
		// Qualified uses report at the selector (the position of the
		// "time" in time.Now); their Sel identifiers are marked handled
		// so the plain-ident pass — which exists to catch dot-imported
		// uses — does not report the same site twice.
		handled := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var (
				id  *ast.Ident
				pos token.Pos
			)
			switch n := n.(type) {
			case *ast.SelectorExpr:
				handled[n.Sel] = true
				id, pos = n.Sel, n.Pos()
			case *ast.Ident:
				if handled[n] {
					return true
				}
				id, pos = n, n.Pos()
			default:
				return true
			}
			pkgPath, name, ok := pkgFunc(p, id)
			if !ok {
				return true
			}
			switch pkgPath {
			case "time":
				switch name {
				case "Now", "Since", "Until":
					report(pos, "call to time."+name+": wall-clock time is nondeterministic; derive timestamps from the simulation epoch clock")
				}
			case "os":
				switch name {
				case "Getenv", "LookupEnv", "Environ":
					report(pos, "call to os."+name+": environment reads are hidden nondeterministic inputs; thread configuration through explicit parameters")
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[name] {
					report(pos, "call to "+pkgPath+"."+name+" uses the process-global random source; use a seeded rand.New(rand.NewSource(seed))")
				}
			}
			return true
		})
	}
}
