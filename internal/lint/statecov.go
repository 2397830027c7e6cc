package lint

// StateCovRule enforces checkpoint completeness on the state graph,
// in two parts.
//
// Pairing: a type with a Snapshot or Checkpoint needs a Restore and
// vice versa, and a SnapshotState needs a RestoreState and vice versa;
// a lone half is state that silently falls out of resume. Pairings are
// read off the type-checker's method sets, so interfaces count, and so
// do methods promoted through struct embedding from any package.
//
// Coverage: every mutable field of a paired type must flow into the
// snapshot side AND be written back on the restore side. "Mutable"
// means assigned by some method of the type other than the pair
// methods themselves — constructor-only configuration needs no
// checkpointing, but anything Step can change does, or a resumed run
// silently diverges from a straight one.
//
// The check is textual-by-closure: a field counts as covered on a side
// when any function in that pair method's transitive call closure
// mentions it (so Rack.Restore delegating classAlive to recount still
// covers classAlive). Derived caches and
// scratch buffers that are deliberately rebuilt instead of serialized
// carry //greensprint:allow(statecov) directives on their field
// declarations, each with a justification the -audit report lists.
//
// Field findings anchor at the field declaration — the line an author
// touches when adding state is the line the diagnostic (and its
// exemption) lives on. Half-pair findings anchor at the lone method.
type StateCovRule struct{}

// Name implements Rule.
func (StateCovRule) Name() string { return "statecov" }

// Doc implements Rule.
func (StateCovRule) Doc() string {
	return "every Snapshot/Checkpoint has a matching Restore and vice versa, and every mutable field of such a type flows into its wire struct and is reassigned on restore"
}

// Applies implements Rule: snapshot pairings occur throughout the
// module (sim, core, battery, pss, chaos, pmk, strategy, …), so the
// rule is unscoped.
func (StateCovRule) Applies(string) bool { return true }

// Check implements Rule.
func (StateCovRule) Check(prog *Program, p *Package, report ReportFunc) {
	for _, gap := range prog.stateGraph().gaps {
		if gap.pkg == p {
			report(gap.pos, gap.msg)
		}
	}
}
