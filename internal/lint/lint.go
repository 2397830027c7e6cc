// Package lint implements greensprint-lint: a stdlib-only static
// analyzer (go/parser + go/ast + go/types + go/importer, no external
// dependencies) that mechanically enforces the repository's invariants
// — bit-identical determinism, crash-safe persistence, checkpoint
// completeness and the single-threaded Step hot path. Every golden
// suite in this repo asserts byte-equal outputs; the rules here fail
// the build the moment a change could make those suites flaky instead
// of letting the regression surface later as a mysterious golden diff.
//
// Diagnostics are vet-style ("file:line: rule: message") with a JSON
// form for CI artifacts. A site that intentionally breaks a rule is
// suppressed with a directive comment on the same line or the line
// above:
//
//	//greensprint:allow(rule1,rule2) justification
//
// The justification text after the closing parenthesis is free-form
// but expected by convention; reviewers treat a bare directive as
// incomplete. Rules are scoped per package (see DeterministicPackages
// and StepGraphPackages) so the analyzer stays quiet outside the
// domains whose invariants it guards.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// ModulePath is the import path of this module; package scoping and
// the module-local importer key off it.
const ModulePath = "greensprint"

// moduleLocal reports whether an import path is inside this module.
func moduleLocal(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// DeterministicPackages is the deterministic simulation domain: every
// package whose outputs feed the golden sweep/event-stream/sharded
// determinism suites. Inside it, wall-clock reads, environment reads,
// the global math/rand source and unordered map iteration are
// forbidden (rules nondeterm and maprange).
var DeterministicPackages = map[string]bool{
	ModulePath + "/internal/chaos":       true,
	ModulePath + "/internal/fleet":       true,
	ModulePath + "/internal/sim":         true,
	ModulePath + "/internal/strategy":    true,
	ModulePath + "/internal/battery":     true,
	ModulePath + "/internal/pss":         true,
	ModulePath + "/internal/pmk":         true,
	ModulePath + "/internal/cluster":     true,
	ModulePath + "/internal/workload":    true,
	ModulePath + "/internal/queueing":    true,
	ModulePath + "/internal/profile":     true,
	ModulePath + "/internal/rl":          true,
	ModulePath + "/internal/predictor":   true,
	ModulePath + "/internal/solar":       true,
	ModulePath + "/internal/wind":        true,
	ModulePath + "/internal/sweep":       true,
	ModulePath + "/internal/experiments": true,
}

// StepGraphPackages is the Engine.Step call graph: the packages whose
// code runs inside a single simulation step. Step is single-threaded
// by design — the PR 4 memo caches (kernel tables, battery bisection
// memos, epoch scratch buffers) are unsynchronized because parallelism
// lives one layer up, in the sweep worker pool. A go statement here is
// a data race waiting for a scheduler change (rule nogoroutine).
var StepGraphPackages = map[string]bool{
	ModulePath + "/internal/chaos":     true,
	ModulePath + "/internal/fleet":     true,
	ModulePath + "/internal/sim":       true,
	ModulePath + "/internal/strategy":  true,
	ModulePath + "/internal/battery":   true,
	ModulePath + "/internal/pss":       true,
	ModulePath + "/internal/pmk":       true,
	ModulePath + "/internal/cluster":   true,
	ModulePath + "/internal/workload":  true,
	ModulePath + "/internal/queueing":  true,
	ModulePath + "/internal/profile":   true,
	ModulePath + "/internal/rl":        true,
	ModulePath + "/internal/predictor": true,
}

// Diagnostic is one finding, addressed by file (relative to the module
// root) and line.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Package string `json:"package"`
}

// String renders the vet-style form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Rule, d.Message)
}

// Rule is one invariant check. Check reports findings through the
// callback; the runner applies allow-directive suppression and sorting
// so rules stay pure detection logic. A rule that needs facts beyond
// one package reads them from the pass's Program index.
type Rule interface {
	// Name is the rule identifier used in diagnostics and in
	// //greensprint:allow(name) directives.
	Name() string
	// Doc is a one-line description for catalogs and -rules output.
	Doc() string
	// Applies reports whether the rule audits the given import path.
	Applies(pkgPath string) bool
	// Check inspects one package and reports each violation.
	Check(prog *Program, pkg *Package, report ReportFunc)
}

// ReportFunc receives one violation at a source position.
type ReportFunc func(pos token.Pos, msg string)

// Package is one parsed, type-checked package ready for rule passes.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives are the well-formed //greensprint:allow comments in
	// source order.
	directives []Directive
	// badDirectives are malformed //greensprint:allow comments,
	// reported under the reserved rule name "directive".
	badDirectives []Diagnostic
}

// Directive is one well-formed //greensprint:allow comment: where it
// sits, which rules it names, and the free-form justification after
// the closing parenthesis.
type Directive struct {
	File          string   `json:"file"`
	Line          int      `json:"line"`
	Rules         []string `json:"rules"`
	Justification string   `json:"justification"`
	Package       string   `json:"package"`
}

// ruleLine is a (file, line, rule) triple: where a finding fires, and
// what a directive covers.
type ruleLine struct {
	file string
	line int
	rule string
}

// covers returns the two lines the directive suppresses rule on: its
// own line and the line below, so it works both trailing a statement
// and on the line above one.
func (d Directive) covers(rule string) [2]ruleLine {
	return [2]ruleLine{{d.File, d.Line, rule}, {d.File, d.Line + 1, rule}}
}

const (
	directiveNS = "greensprint:"
	allowPrefix = "//" + directiveNS + "allow"
)

// collectDirectives scans the file's comments for suppression directives.
// Anything in the reserved greensprint: namespace that is not the
// exact //greensprint:allow(rule[,rule...]) form — including near
// misses like "// greensprint:allow(rule)" (space after the slashes)
// or "//greensprint: allow(rule)" (space after the colon) — is
// reported as malformed rather than silently ignored, so an author can
// never believe a site is suppressed when it is not.
func (p *Package) collectDirectives(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//") {
				continue
			}
			// Directive-shaped: the reserved namespace is the first
			// token after the slashes, ignoring indentation whitespace.
			// A body opening with another "//" is a quoted example in
			// prose (as in this package's doc comment), not a directive.
			body := strings.TrimLeft(text[2:], " \t")
			if !strings.HasPrefix(body, directiveNS) {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			bad := func() {
				p.badDirectives = append(p.badDirectives, Diagnostic{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Rule:    "directive",
					Message: "malformed " + allowPrefix + " directive; want " + allowPrefix + "(rule[,rule...]) justification",
					Package: p.Path,
				})
			}
			if !strings.HasPrefix(text, allowPrefix) {
				// Near miss: whitespace inside the directive or an
				// unknown verb in the reserved namespace. Report it —
				// it would otherwise neither apply nor warn.
				bad()
				continue
			}
			rest := text[len(allowPrefix):]
			if !strings.HasPrefix(rest, "(") {
				bad()
				continue
			}
			end := strings.IndexByte(rest, ')')
			if end < 0 {
				bad()
				continue
			}
			names := strings.Split(rest[1:end], ",")
			ok := len(names) > 0
			for i, n := range names {
				names[i] = strings.TrimSpace(n)
				if names[i] == "" {
					ok = false
				}
			}
			if !ok {
				bad()
				continue
			}
			p.directives = append(p.directives, Directive{
				File:          pos.Filename,
				Line:          pos.Line,
				Rules:         names,
				Justification: strings.TrimSpace(rest[end+1:]),
				Package:       p.Path,
			})
		}
	}
}

// Loader parses and type-checks module packages from source. Imports
// of module-local packages recurse through the loader; standard
// library imports go through the stdlib source importer, so the whole
// pass needs nothing beyond GOROOT sources.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*Package
	active map[string]bool // cycle guard
}

// NewLoader returns a loader for the module rooted at root. It
// verifies go.mod declares ModulePath so the hard-coded scoping sets
// stay in sync with reality.
func NewLoader(root string) (*Loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	first := strings.TrimSpace(strings.SplitN(string(mod), "\n", 2)[0])
	if first != "module "+ModulePath {
		return nil, fmt.Errorf("lint: %s/go.mod declares %q, want module %s", root, first, ModulePath)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		active: map[string]bool{},
	}, nil
}

// Import implements types.Importer for the type-checker: module-local
// paths load (and cache) through the loader, everything else resolves
// from the standard library source tree.
func (l *Loader) Import(path string) (*types.Package, error) {
	if moduleLocal(path) {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the module package at importPath.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.active[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.active[importPath] = true
	defer delete(l.active, importPath)

	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, ModulePath), "/")
	p, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), importPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = p
	return p, nil
}

// LoadDir type-checks the package in dir under an explicit import
// path, without caching. The lint tests use it to load testdata
// fixtures as if they lived at a scoped path (e.g. a fixture checked
// as greensprint/internal/sim so the deterministic-domain rules fire).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	p := &Package{Path: importPath, Fset: l.Fset}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		display := full
		if rel, err := filepath.Rel(l.Root, full); err == nil && !strings.HasPrefix(rel, "..") {
			display = filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(l.Fset, display, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		p.collectDirectives(f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p.Files = files
	p.Info = &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(importPath, l.Fset, files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	p.Types = tp
	return p, nil
}

// LoadAll discovers every package directory under the module root
// (skipping testdata, hidden and underscore-prefixed directories) and
// loads the ones whose relative directory matches one of the patterns.
// Patterns follow the go tool's shape: "./..." matches everything,
// "./x/..." matches x and its subtree, "./x" matches exactly x.
func (l *Loader) LoadAll(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.Root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	slices.Sort(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		rel = filepath.ToSlash(rel)
		if !matchAny(rel, patterns) {
			continue
		}
		path := ModulePath
		if rel != "." {
			path = ModulePath + "/" + rel
		}
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// matchAny reports whether the module-relative directory rel (using
// "/" separators, "." for the root) matches any pattern.
func matchAny(rel string, patterns []string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		switch {
		case pat == "..." || pat == ".":
			if pat == "..." || rel == "." {
				return true
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		default:
			if rel == pat {
				return true
			}
		}
	}
	return false
}

// DefaultRules is the shipped rule catalog, in reporting order.
func DefaultRules() []Rule {
	return []Rule{
		NondetermRule{},
		MapRangeRule{},
		AtomicWriteRule{},
		NoGoroutineRule{},
		AllocFreeRule{},
		StateCovRule{},
		LockGuardRule{},
		WireTagRule{},
	}
}

// findings is the raw-findings pass Run and Audit share: it indexes the
// packages into one Program, runs every applicable rule over every
// package and hands each finding, unsuppressed, to emit.
func findings(pkgs []*Package, rules []Rule, emit func(Diagnostic)) {
	prog := newProgram(pkgs)
	for _, pkg := range pkgs {
		for _, r := range rules {
			if !r.Applies(pkg.Path) {
				continue
			}
			r.Check(prog, pkg, func(pos token.Pos, msg string) {
				at := pkg.Fset.Position(pos)
				emit(Diagnostic{
					File: at.Filename, Line: at.Line, Col: at.Column,
					Rule: r.Name(), Message: msg, Package: pkg.Path,
				})
			})
		}
	}
}

// Run applies the rules to the packages and returns the surviving
// diagnostics sorted by file, line, column and rule. Allow directives
// are honored here; malformed directives surface as "directive"
// diagnostics (which cannot be suppressed).
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	var diags []Diagnostic
	allowed := map[ruleLine]bool{}
	for _, pkg := range pkgs {
		diags = append(diags, pkg.badDirectives...)
		for _, d := range pkg.directives {
			for _, rule := range d.Rules {
				for _, s := range d.covers(rule) {
					allowed[s] = true
				}
			}
		}
	}
	findings(pkgs, rules, func(d Diagnostic) {
		if !allowed[ruleLine{d.File, d.Line, d.Rule}] {
			diags = append(diags, d)
		}
	})
	slices.SortStableFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), strings.Compare(a.Rule, b.Rule))
	})
	return diags
}
