package lint

import (
	"go/token"
	"go/types"
)

// SnapshotPairRule enforces checkpoint completeness: the repo's
// checkpoint format (sim.Checkpoint, core.Checkpoint) is a composition
// of per-component Snapshot/Restore pairs, so a type that grows a
// Snapshot without a Restore (or vice versa) is state that silently
// falls out of resume — the run replays differently after a restart
// and the sharded golden suites diverge. The accepted pairings are:
//
//   - Snapshot ↔ Restore (battery.ClassBank, pss.Selector, pmk.Fleet, ...)
//   - Checkpoint ↔ Restore (sim.Engine, core.Controller, whose
//     snapshot-producing method is named Checkpoint)
//   - SnapshotState ↔ RestoreState (the strategy.Strategy interface)
//
// The rule works on the type-checker's method sets, not on syntactic
// receiver declarations, so methods promoted through struct embedding
// count: a type that inherits Snapshot from an embedded component and
// declares only its own Restore is correctly seen as paired, including
// when the embedded type lives in another package.
type SnapshotPairRule struct{}

// Name implements Rule.
func (SnapshotPairRule) Name() string { return "snapshotpair" }

// Doc implements Rule.
func (SnapshotPairRule) Doc() string {
	return "every Snapshot/Checkpoint has a matching Restore and vice versa (checkpoint completeness)"
}

// Applies implements Rule.
func (SnapshotPairRule) Applies(string) bool { return true }

// pairMethods are the method names the rule tracks.
var pairMethods = map[string]bool{
	"Snapshot":      true,
	"Restore":       true,
	"Checkpoint":    true,
	"SnapshotState": true,
	"RestoreState":  true,
}

// Check implements Rule.
func (SnapshotPairRule) Check(p *Package, report ReportFunc) {
	// Files of this package, so a diagnostic never anchors at a
	// promoted method declared elsewhere.
	local := map[string]bool{}
	for _, f := range p.Files {
		local[p.Fset.Position(f.Pos()).Filename] = true
	}

	scope := p.Types.Scope()
	for _, name := range scope.Names() { // sorted, so deterministic
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		// The pointer method set is the superset for concrete types;
		// interfaces carry their methods (including embedded ones) on
		// the type itself.
		var ms *types.MethodSet
		if types.IsInterface(named) {
			ms = types.NewMethodSet(named)
		} else {
			ms = types.NewMethodSet(types.NewPointer(named))
		}
		has := map[string]token.Pos{}
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if !pairMethods[m.Name()] {
				continue
			}
			pos := m.Pos()
			if !pos.IsValid() || !local[p.Fset.Position(pos).Filename] {
				pos = tn.Pos() // promoted from elsewhere: anchor at the type
			}
			has[m.Name()] = pos
		}
		hv := func(m string) bool { _, ok := has[m]; return ok }
		if hv("Snapshot") && !hv("Restore") {
			report(has["Snapshot"], "type "+name+" declares Snapshot but no Restore; its state cannot be resumed from a checkpoint")
		}
		if hv("Checkpoint") && !hv("Restore") {
			report(has["Checkpoint"], "type "+name+" declares Checkpoint but no Restore; its checkpoints cannot be resumed")
		}
		if hv("Restore") && !hv("Snapshot") && !hv("Checkpoint") {
			report(has["Restore"], "type "+name+" declares Restore but no Snapshot or Checkpoint; its state silently falls out of checkpoints")
		}
		if hv("SnapshotState") && !hv("RestoreState") {
			report(has["SnapshotState"], "type "+name+" declares SnapshotState but no RestoreState; its state cannot be resumed from a checkpoint")
		}
		if hv("RestoreState") && !hv("SnapshotState") {
			report(has["RestoreState"], "type "+name+" declares RestoreState but no SnapshotState; its state silently falls out of checkpoints")
		}
	}
}
