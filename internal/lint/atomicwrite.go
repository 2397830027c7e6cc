package lint

import "go/ast"

// AtomicWriteRule enforces the persistence invariant PR 3 established:
// every state file written by this repo goes through
// internal/atomicfile (tmp file + rename), so a crash mid-write never
// leaves a truncated checkpoint, Q-table or knob file at the final
// path. Direct os.WriteFile and os.Create calls are flagged
// everywhere outside internal/atomicfile itself; genuine streaming
// writers (CSV exports, JSONL event logs — append streams whose
// partial contents are still useful) carry an
// //greensprint:allow(atomicwrite) directive saying so.
type AtomicWriteRule struct{}

// Name implements Rule.
func (AtomicWriteRule) Name() string { return "atomicwrite" }

// Doc implements Rule.
func (AtomicWriteRule) Doc() string {
	return "no direct os.WriteFile/os.Create persistence outside internal/atomicfile"
}

// Applies implements Rule.
func (AtomicWriteRule) Applies(pkgPath string) bool {
	return pkgPath != ModulePath+"/internal/atomicfile"
}

// Check implements Rule.
func (AtomicWriteRule) Check(_ *Program, p *Package, report ReportFunc) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFunc(p, sel.Sel)
			if !ok || pkgPath != "os" {
				return true
			}
			switch name {
			case "WriteFile":
				report(sel.Pos(), "direct os.WriteFile is not crash-safe (a crash mid-write truncates the previous contents); use internal/atomicfile.WriteFile")
			case "Create":
				report(sel.Pos(), "os.Create bypasses atomic persistence; use internal/atomicfile.WriteFile for state files, or annotate a genuine streaming writer with //greensprint:allow(atomicwrite)")
			}
			return true
		})
	}
}
