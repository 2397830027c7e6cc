package lint

import "go/ast"

// NoGoroutineRule forbids `go` statements in the Engine.Step call
// graph. Step is deliberately single-threaded: the PR 4 hot-path memo
// caches (kernel goodput tables, battery bisection memos, per-epoch
// scratch buffers) are unsynchronized because all parallelism lives
// one layer up in the sweep worker pool, which gives each worker its
// own Engine. A goroutine spawned below that boundary reintroduces
// the data races the architecture was shaped to exclude.
type NoGoroutineRule struct{}

// Name implements Rule.
func (NoGoroutineRule) Name() string { return "nogoroutine" }

// Doc implements Rule.
func (NoGoroutineRule) Doc() string {
	return "no go statements in the Engine.Step call graph (parallelism belongs to the sweep layer)"
}

// Applies implements Rule.
func (NoGoroutineRule) Applies(pkgPath string) bool { return StepGraphPackages[pkgPath] }

// Check implements Rule.
func (NoGoroutineRule) Check(_ *Program, p *Package, report ReportFunc) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				report(g.Pos(), "go statement in an Engine.Step call-graph package; Step must stay single-threaded for its unsynchronized memo caches — hoist concurrency to the sweep layer")
			}
			return true
		})
	}
}
