package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	return root
}

// TestRuleFixtures loads one intentionally-violating fixture package
// per rule, scoped to an import path where the rule applies, and
// asserts the exact file:line: rule: message output against committed
// goldens. Each fixture also contains the rule's sanctioned idiom and
// a directive-suppressed site, so a pass that over-fires breaks the
// golden just as loudly as one that under-fires.
func TestRuleFixtures(t *testing.T) {
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fixture string // directory under testdata/src and golden name
		rule    string
		asPath  string // import path the fixture is checked under
	}{
		{"nondeterm", "nondeterm", ModulePath + "/internal/sim"},
		{"maprange", "maprange", ModulePath + "/internal/strategy"},
		{"atomicwrite", "atomicwrite", ModulePath + "/cmd/fixture"},
		{"nogoroutine", "nogoroutine", ModulePath + "/internal/battery"},
		{"allocfree", "allocfree", ModulePath + "/internal/sim"},
		{"statecov", "statecov", ModulePath + "/internal/fixture"},
		// The Snapshot/Restore pairing half of statecov.
		{"snapshotpair", "statecov", ModulePath + "/internal/fixture"},
		{"lockguard", "lockguard", ModulePath + "/internal/core"},
		{"wiretag", "wiretag", ModulePath + "/internal/fixture"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "lint", "testdata", "src", tc.fixture)
			pkg, err := loader.LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run([]*Package{pkg}, DefaultRules())
			var lines []string
			for _, d := range diags {
				if d.Rule != tc.rule {
					t.Errorf("fixture fired foreign rule: %s", d)
				}
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n") + "\n"
			goldenPath := filepath.Join(root, "internal", "lint", "testdata", tc.fixture+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestSelfClean is the invariant the whole PR rests on: the analyzer
// must exit clean on the repository itself. A new violation anywhere
// in the tree fails this test with the exact offending line.
func TestSelfClean(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the walker is skipping real code", len(pkgs))
	}
	for _, d := range Run(pkgs, DefaultRules()) {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestMalformedDirective proves bad suppression comments surface as
// un-suppressible "directive" diagnostics instead of silently allowing
// everything (or nothing). Near-miss forms — whitespace after the
// slashes or after the colon — must both be reported as malformed AND
// not suppress the rule they name, so an author can never believe a
// site is covered when it is not. The fixture is loaded as a
// deterministic-domain package so the os.Getenv sites under the
// near-miss directives prove the non-suppression half.
func TestMalformedDirective(t *testing.T) {
	root := moduleRoot(t)
	dir := t.TempDir()
	src := `package bad

import "os"

//greensprint:allow nondeterm missing parens
var A = 1

//greensprint:allow() empty rule list
var B = 2

//greensprint:allow(nondeterm justification inside parens breaks the close
var C = 3

// greensprint:allow(nondeterm) near miss: space after the slashes
var D = os.Getenv("D")

//greensprint: allow(nondeterm) near miss: space after the colon
var E = os.Getenv("E")
`
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, ModulePath+"/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, DefaultRules())
	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	if byRule["directive"] != 5 {
		t.Errorf("got %d malformed-directive findings, want 5: %v", byRule["directive"], diags)
	}
	if byRule["nondeterm"] != 2 {
		t.Errorf("got %d nondeterm findings, want 2 (near-miss directives must not suppress): %v", byRule["nondeterm"], diags)
	}
	if len(diags) != 7 {
		t.Errorf("got %d diagnostics in total, want 7: %v", len(diags), diags)
	}
}

// TestDirectiveScope pins the suppression grammar: a directive covers
// its own line and the line below, nothing further.
func TestDirectiveScope(t *testing.T) {
	root := moduleRoot(t)
	dir := t.TempDir()
	src := `package scope

import "os"

//greensprint:allow(nondeterm) covers the next line only
var A = os.Getenv("A")
var B = os.Getenv("B")
var C = os.Getenv("C") //greensprint:allow(nondeterm) trailing form
`
	if err := os.WriteFile(filepath.Join(dir, "scope.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, ModulePath+"/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, DefaultRules())
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the unsuppressed os.Getenv: %v", len(diags), diags)
	}
	if diags[0].Line != 7 {
		t.Errorf("surviving diagnostic at line %d, want 7 (var B): %s", diags[0].Line, diags[0])
	}
}

func TestMatchAny(t *testing.T) {
	cases := []struct {
		rel      string
		patterns []string
		want     bool
	}{
		{".", []string{"./..."}, true},
		{"internal/sim", []string{"./..."}, true},
		{"internal/sim", []string{"./internal/..."}, true},
		{"internal/sim", []string{"./internal/sim"}, true},
		{"internal/simulator", []string{"./internal/sim"}, false},
		{"internal/simulator", []string{"./internal/sim/..."}, false},
		{"cmd/tracegen", []string{"./internal/..."}, false},
		{"cmd/tracegen", []string{"./internal/...", "./cmd/..."}, true},
		{".", []string{"."}, true},
		{"internal/sim", []string{"."}, false},
	}
	for _, tc := range cases {
		if got := matchAny(tc.rel, tc.patterns); got != tc.want {
			t.Errorf("matchAny(%q, %v) = %v, want %v", tc.rel, tc.patterns, got, tc.want)
		}
	}
}
