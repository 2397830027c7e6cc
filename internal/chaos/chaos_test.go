package chaos

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestParseProfile covers the spec syntax: key=weight pairs, duration
// overrides, presets, and canonical ordering.
func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("solar=1.5:3-6,crash=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{Entries: []Entry{
		{Mode: ServerCrash, Weight: 2},
		{Mode: SolarDropout, Weight: 1.5, MinDur: 3, MaxDur: 6},
	}}
	if len(p.Entries) != len(want.Entries) {
		t.Fatalf("entries = %+v, want %+v", p.Entries, want.Entries)
	}
	for i := range want.Entries {
		if p.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, p.Entries[i], want.Entries[i])
		}
	}
	// String renders the canonical spec; re-parsing it round-trips.
	if got := p.String(); got != "crash=2,solar=1.5:3-6" {
		t.Errorf("String() = %q", got)
	}
	again, err := ParseProfile(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != p.String() {
		t.Errorf("round-trip = %q, want %q", again.String(), p.String())
	}
}

// TestParseProfilePresets resolves the named presets.
func TestParseProfilePresets(t *testing.T) {
	light, err := ParseProfile("light")
	if err != nil {
		t.Fatal(err)
	}
	if len(light.Entries) != 2 {
		t.Errorf("light has %d entries", len(light.Entries))
	}
	heavy, err := ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if len(heavy.Entries) != int(numModes) {
		t.Errorf("heavy has %d entries, want %d (all modes)", len(heavy.Entries), numModes)
	}
}

// TestParseProfileErrors pins the rejection of malformed specs.
func TestParseProfileErrors(t *testing.T) {
	for _, spec := range []string{
		"", ",", "crash", "crash=", "crash=x", "bogus=1", "crash=1,crash=2",
		"crash=-1", "crash=1e99", "solar=1:3", "solar=1:6-3", "solar=1:-1-4",
		"degrade=1:2-3", // degradation is permanent
	} {
		if _, err := ParseProfile(spec); err == nil {
			t.Errorf("ParseProfile(%q) accepted", spec)
		}
	}
}

// TestResolveDeterministic is the core contract: same (profile, seed,
// topology) resolves to the same timeline, different seeds to
// (generally) different ones.
func TestResolveDeterministic(t *testing.T) {
	p, err := ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Resolve(7, 50, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Resolve(7, 50, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("same seed resolved differently:\n%s\n%s", ja, jb)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("resolved schedule invalid: %v", err)
	}
	if len(a.Faults) == 0 {
		t.Error("heavy profile over 50 epochs resolved to no faults")
	}
	c, err := p.Resolve(8, 50, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if string(jc) == string(ja) {
		t.Error("different seeds resolved to identical timelines")
	}
}

// TestResolveZoneCascade checks the cascading outage expansion: the
// parent marker plus a crash for every server in the zone plus the
// zone's solar feed, all sharing one recovery epoch.
func TestResolveZoneCascade(t *testing.T) {
	p := Profile{Entries: []Entry{{Mode: ZoneOutage, Weight: 60}}}
	s, err := p.Resolve(3, 60, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	var parent *Fault
	for i := range s.Faults {
		if s.Faults[i].Mode == ZoneOutage {
			parent = &s.Faults[i]
			break
		}
	}
	if parent == nil {
		t.Fatal("no zone outage resolved")
	}
	lo, hi := zoneOf(s.Servers, parent.Target)
	seen := map[int]bool{}
	solar := false
	for _, f := range s.Faults {
		if f.Epoch != parent.Epoch || !f.Cascade {
			continue
		}
		switch f.Mode {
		case ServerCrash:
			seen[f.Target] = true
			if f.Recover != parent.Recover {
				t.Errorf("cascade crash recovers at %d, parent at %d", f.Recover, parent.Recover)
			}
		case SolarDropout:
			solar = true
		}
	}
	for srv := lo; srv < hi; srv++ {
		if !seen[srv] {
			t.Errorf("zone %d server %d not crashed by cascade", parent.Target, srv)
		}
	}
	if !solar {
		t.Error("cascade lacks the zone's solar dropout")
	}
}

// TestScheduleValidate pins the structural checks on fixture-loaded
// schedules.
func TestScheduleValidate(t *testing.T) {
	base := func() *Schedule {
		return &Schedule{Seed: 1, Epochs: 10, Servers: 2, Units: 2}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("empty schedule: %v", err)
	}
	for name, s := range map[string]*Schedule{
		"out of order": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 5, Mode: SolarDropout, Recover: 6}, {Epoch: 2, Mode: SolarDropout, Recover: 3}}},
		"recover before epoch": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 5, Mode: SolarDropout, Recover: 5}}},
		"crash without restart": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 1, Mode: ServerCrash, Target: 0}}},
		"server out of range": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 1, Mode: ServerCrash, Target: 2, Recover: 3}}},
		"unit out of range": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 1, Mode: BatteryDegrade, Target: 2, Factor: 0.9, Resist: 1.1}}},
		"bad factor": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 1, Mode: BatteryDegrade, Target: 0, Factor: 1.5, Resist: 1.1}}},
		"bad resist": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 1, Mode: BatteryDegrade, Target: 0, Factor: 0.9, Resist: 0.5}}},
		"bad zone": {Seed: 1, Epochs: 10, Servers: 2, Units: 2, Faults: []Fault{
			{Epoch: 1, Mode: ZoneOutage, Target: 2, Recover: 3}}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(); err == nil {
		t.Error("nil schedule accepted")
	}
}

// TestInjectorOverlap drives two overlapping crashes of the same
// server through the injector: the server only comes back when BOTH
// faults have recovered (the ref-count invariant that keeps cascades
// from corrupting component state).
func TestInjectorOverlap(t *testing.T) {
	s := &Schedule{Seed: 1, Epochs: 12, Servers: 2, Units: 0, Faults: []Fault{
		{Epoch: 2, Mode: ServerCrash, Target: 0, Recover: 8},
		{Epoch: 4, Mode: ServerCrash, Target: 0, Recover: 6},
		{Epoch: 4, Mode: SolarDropout, Recover: 5},
		{Epoch: 4, Mode: SolarDropout, Recover: 9},
	}}
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	wantDown := map[int]bool{2: true, 3: true, 4: true, 5: true, 6: true, 7: true}
	wantSolar := map[int]float64{4: 0, 5: 0, 6: 0, 7: 0, 8: 0}
	for epoch := 0; epoch < 12; epoch++ {
		in.Advance(epoch)
		if got := in.ServerDown(0); got != wantDown[epoch] {
			t.Errorf("epoch %d: ServerDown(0) = %v, want %v", epoch, got, wantDown[epoch])
		}
		if in.ServerDown(1) {
			t.Errorf("epoch %d: server 1 down", epoch)
		}
		wantF := 1.0
		if _, ok := wantSolar[epoch]; ok {
			wantF = 0
		}
		if got := in.SolarFactor(); got != wantF {
			t.Errorf("epoch %d: SolarFactor = %v, want %v", epoch, got, wantF)
		}
		wantAlive := 2
		if wantDown[epoch] {
			wantAlive = 1
		}
		if got := in.AliveServers(); got != wantAlive {
			t.Errorf("epoch %d: AliveServers = %d, want %d", epoch, got, wantAlive)
		}
	}
}

// TestInjectorActions checks transition emission order and contents:
// recoveries before injections, schedule order within each.
func TestInjectorActions(t *testing.T) {
	s := &Schedule{Seed: 1, Epochs: 10, Servers: 1, Units: 0, Faults: []Fault{
		{Epoch: 1, Mode: PSSStuck, Recover: 3},
		{Epoch: 3, Mode: BreakerTrip, Recover: 4},
	}}
	in, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	if acts := in.Advance(0); len(acts) != 0 {
		t.Errorf("epoch 0 actions = %+v", acts)
	}
	acts := in.Advance(1)
	if len(acts) != 1 || acts[0].Recovered || acts[0].Fault.Mode != PSSStuck {
		t.Fatalf("epoch 1 actions = %+v", acts)
	}
	if !in.Stuck() {
		t.Error("not stuck after injection")
	}
	acts = in.Advance(3)
	if len(acts) != 2 {
		t.Fatalf("epoch 3 actions = %+v", acts)
	}
	if !acts[0].Recovered || acts[0].Fault.Mode != PSSStuck {
		t.Errorf("epoch 3 first action = %+v, want stuck recovery", acts[0])
	}
	if acts[1].Recovered || acts[1].Fault.Mode != BreakerTrip {
		t.Errorf("epoch 3 second action = %+v, want trip injection", acts[1])
	}
	if in.Stuck() {
		t.Error("still stuck after recovery")
	}
	if !in.BreakerForced() {
		t.Error("breaker not forced after trip")
	}
	in.Advance(4)
	if in.BreakerForced() {
		t.Error("breaker still forced after recovery")
	}
}

// TestInjectorSnapshotRoundTrip snapshots mid-failure, restores into a
// fresh injector over the same schedule, and compares the remaining
// replay transition-for-transition.
func TestInjectorSnapshotRoundTrip(t *testing.T) {
	p, err := ParseProfile("heavy")
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Resolve(11, 40, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	const mid = 20
	for epoch := 0; epoch < mid; epoch++ {
		ref.Advance(epoch)
		cut.Advance(epoch)
	}
	snap := cut.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded InjectorSnapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewInjector(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	for epoch := mid; epoch < 40; epoch++ {
		a := ref.Advance(epoch)
		b := fresh.Advance(epoch)
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatalf("epoch %d: restored replay diverged:\nref   %s\nfresh %s", epoch, ja, jb)
		}
		if ref.AliveServers() != fresh.AliveServers() || ref.Stuck() != fresh.Stuck() ||
			ref.BreakerForced() != fresh.BreakerForced() || ref.SolarFactor() != fresh.SolarFactor() {
			t.Fatalf("epoch %d: aggregate state diverged", epoch)
		}
	}
}

// TestInjectorRestoreRejects pins the snapshot fingerprint checks.
func TestInjectorRestoreRejects(t *testing.T) {
	s := &Schedule{Seed: 5, Epochs: 10, Servers: 2, Units: 0, Faults: []Fault{
		{Epoch: 1, Mode: SolarDropout, Recover: 3},
	}}
	mk := func() *Injector {
		in, err := NewInjector(s)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	good := mk().Snapshot()
	for name, mut := range map[string]func(*InjectorSnapshot){
		"seed":          func(sn *InjectorSnapshot) { sn.Seed = 6 },
		"fault count":   func(sn *InjectorSnapshot) { sn.Faults = 2 },
		"cursor range":  func(sn *InjectorSnapshot) { sn.Cursor = 9 },
		"server count":  func(sn *InjectorSnapshot) { sn.Down = []int{0, 0, 0} },
		"negative down": func(sn *InjectorSnapshot) { sn.Down = []int{-1, 0} },
		"negative ref":  func(sn *InjectorSnapshot) { sn.Solar = -1 },
		"active no rec": func(sn *InjectorSnapshot) { sn.Active = []Fault{{Epoch: 1, Mode: SolarDropout}} },
		// Past the cursor, but not a schedule fault: releasing it would
		// index server 7 of 2.
		"active stranger": func(sn *InjectorSnapshot) {
			sn.Cursor = 1
			sn.Active = []Fault{{Epoch: 1, Mode: ServerCrash, Target: 7, Recover: 3}}
		},
		"active not yet injected": func(sn *InjectorSnapshot) { sn.Active = []Fault{s.Faults[0]} },
	} {
		sn := good
		sn.Down = append([]int(nil), good.Down...)
		mut(&sn)
		if err := mk().Restore(sn); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := mk().Restore(good); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestFaultString spot-checks the human-readable rendering used in
// event details.
func TestFaultString(t *testing.T) {
	f := Fault{Epoch: 3, Mode: ServerCrash, Target: 2, Recover: 5}
	if s := f.String(); !strings.Contains(s, "server 2") || !strings.Contains(s, "3-5") {
		t.Errorf("String() = %q", s)
	}
	d := Fault{Epoch: 1, Mode: BatteryDegrade, Target: 1, Factor: 0.8, Resist: 1.2}
	if s := d.String(); !strings.Contains(s, "unit 1") || !strings.Contains(s, "permanent") {
		t.Errorf("String() = %q", s)
	}
}
