package lint

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// AuditEntry is one (directive, rule) pair from the exemption audit: a
// directive naming several rules produces one entry per rule, so each
// exemption is judged live or stale independently.
type AuditEntry struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Rule          string `json:"rule"`
	Live          bool   `json:"live"`
	Justification string `json:"justification"`
	Package       string `json:"package"`
	// Reason explains a stale verdict: the rule fired nothing on the
	// covered lines, the rule name is unknown, or the directive has no
	// justification text. Empty for live, justified entries.
	Reason string `json:"reason,omitempty"`
}

// String renders the vet-style audit line.
func (e AuditEntry) String() string {
	state := "live"
	if !e.Live {
		state = "STALE"
	}
	out := e.File + ":" + strconv.Itoa(e.Line) + ": allow(" + e.Rule + "): " + state
	if e.Justification != "" {
		out += ": " + e.Justification
	}
	if e.Reason != "" {
		out += " [" + e.Reason + "]"
	}
	return out
}

// Audit justifies every //greensprint:allow directive in the packages:
// it takes the same raw findings Run filters through the directives
// and marks each (directive, rule) pair live when the rule actually
// fires on a line the directive covers (its own line or the line
// below). A stale
// exemption — the code it excused was fixed or deleted, the rule name
// is unknown, or the justification is missing — is the audit's
// finding: it either documents a violation that no longer exists or
// silently pre-approves a future one.
func Audit(pkgs []*Package, rules []Rule) []AuditEntry {
	known := map[string]bool{}
	for _, r := range rules {
		known[r.Name()] = true
	}

	// Raw findings, ignoring suppression.
	fired := map[ruleLine]bool{}
	findings(pkgs, rules, func(d Diagnostic) {
		fired[ruleLine{d.File, d.Line, d.Rule}] = true
	})

	var entries []AuditEntry
	for _, pkg := range pkgs {
		for _, d := range pkg.directives {
			for _, name := range d.Rules {
				e := AuditEntry{
					File: d.File, Line: d.Line, Rule: name,
					Justification: d.Justification, Package: d.Package,
				}
				covered := d.covers(name)
				switch {
				case !known[name]:
					e.Reason = "unknown rule"
				case fired[covered[0]] || fired[covered[1]]:
					e.Live = true
					if d.Justification == "" {
						e.Reason = "missing justification"
						e.Live = false
					}
				default:
					e.Reason = "rule no longer fires on the covered lines"
				}
				entries = append(entries, e)
			}
		}
	}
	// (file, line, rule) is the primary order CI artifacts diff on;
	// package and justification break any remaining ties so the report
	// is a total order regardless of load order or map iteration
	// anywhere upstream.
	slices.SortStableFunc(entries, func(a, b AuditEntry) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			strings.Compare(a.Rule, b.Rule), strings.Compare(a.Package, b.Package),
			strings.Compare(a.Justification, b.Justification))
	})
	return entries
}
