package sim

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/solar"
	"greensprint/internal/workload"
)

// fleetCfg builds a run over a generated heterogeneous fleet: total
// servers split across three classes (a default-profile web tier, a
// higher-envelope batch tier and a battery-less archive tier), supply
// scaled to the generated PV attachment.
func fleetCfg(t *testing.T, total int) Config {
	t.Helper()
	spec := &fleet.Spec{
		Name:         "testfleet",
		TotalServers: total,
		RackSize:     8,
		Seed:         11,
		Templates: []fleet.Template{
			{Name: "web", Weight: 5, BatteryAh: 10, Panels: 3},
			{Name: "batch", Weight: 3, PeakPower: 250, BatteryAh: 3.2, BatteryMaxDoD: 0.6, Panels: 2},
			{Name: "archive", Weight: 2},
		},
	}
	topo, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	lead, tail := 10*time.Minute, 10*time.Minute
	supply := solar.Synthesize(solar.Med, lead+d+tail, time.Minute, float64(topo.PeakGreen()), 42)
	return Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Fleet:    spec,
		Strategy: hybrid(t),
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	}
}

// TestFleetSingleClassParity pins the one-class topology the paper's
// rack runs as: a run over the explicit spec fleet.FromGreen lifts
// from each Table I config must reproduce the default run's Result —
// every record, aggregate and knob-transition count — bit for bit, and
// its event stream may differ only by the per-class stats that a
// Config.Fleet switches on.
func TestFleetSingleClassParity(t *testing.T) {
	for _, green := range []cluster.GreenConfig{cluster.REBatt(), cluster.RESBatt(), cluster.REOnly()} {
		t.Run(green.Name, func(t *testing.T) {
			def := ckptConfig(t)
			def.Green = green
			def.Supply = solar.Synthesize(solar.Med, 50*time.Minute, time.Minute, float64(green.PeakGreen()), 42)
			var defEvents, specEvents strings.Builder
			def.Sink = obs.NewJSONL(&defEvents)
			ref := mustRunAll(t, mustNew(t, def))

			fc := def
			fc.Strategy = hybrid(t)
			fc.Sink = obs.NewJSONL(&specEvents)
			spec := fleet.FromGreen(green, 1)
			fc.Fleet = &spec
			got := mustRunAll(t, mustNew(t, fc))
			assertSameResult(t, ref, got)
			if wt, gt := ref.ClassFleet.Transitions(), got.ClassFleet.Transitions(); wt != gt {
				t.Errorf("knob transitions = %d, want %d", gt, wt)
			}
			if ref.ClassEnergyWh != nil {
				t.Errorf("default run reports class energy %v", ref.ClassEnergyWh)
			}
			if len(got.ClassEnergyWh) != 1 {
				t.Fatalf("ClassEnergyWh = %v, want one class", got.ClassEnergyWh)
			}

			defLines := strings.Split(strings.TrimSpace(defEvents.String()), "\n")
			specLines := strings.Split(strings.TrimSpace(specEvents.String()), "\n")
			if len(defLines) != len(specLines) {
				t.Fatalf("%d spec-run events, want %d", len(specLines), len(defLines))
			}
			for i := range defLines {
				var d, s map[string]json.RawMessage
				if err := json.Unmarshal([]byte(defLines[i]), &d); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal([]byte(specLines[i]), &s); err != nil {
					t.Fatal(err)
				}
				if _, ok := d["classes"]; ok {
					t.Fatalf("default-run event %d carries class stats: %s", i, defLines[i])
				}
				if _, ok := s["classes"]; !ok {
					t.Fatalf("spec-run event %d lacks class stats: %s", i, specLines[i])
				}
				delete(s, "classes")
				db, _ := json.Marshal(d)
				sb, _ := json.Marshal(s)
				if string(db) != string(sb) {
					t.Fatalf("event %d differs beyond class stats:\ndefault %s\nspec    %s", i, defLines[i], specLines[i])
				}
			}
		})
	}
}

// TestFleetClassEvents checks the per-class observability stream: a
// multi-class run annotates every epoch event with one ClassStat per
// template, alive counts matching the census, and cumulative energy
// that never decreases.
func TestFleetClassEvents(t *testing.T) {
	cfg := fleetCfg(t, 24)
	var buf strings.Builder
	cfg.Sink = obs.NewJSONL(&buf)
	topo := mustNew(t, cfg).Topology()
	cfg.Strategy = hybrid(t)
	mustRunAll(t, mustNew(t, cfg))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no events emitted")
	}
	prev := make([]float64, len(topo.Classes))
	for _, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Chaos != "" {
			continue
		}
		if len(ev.Classes) != len(topo.Classes) {
			t.Fatalf("epoch %d: %d class stats, want %d", ev.Epoch, len(ev.Classes), len(topo.Classes))
		}
		alive := 0
		for i, cs := range ev.Classes {
			if cs.Name != topo.Classes[i].Name {
				t.Fatalf("epoch %d class %d named %q, want %q", ev.Epoch, i, cs.Name, topo.Classes[i].Name)
			}
			if cs.Alive != topo.Classes[i].Servers {
				t.Fatalf("epoch %d class %q alive = %d, want %d (fault-free run)",
					ev.Epoch, cs.Name, cs.Alive, topo.Classes[i].Servers)
			}
			if cs.EnergyWh < prev[i] {
				t.Fatalf("epoch %d class %q energy %.3f fell below %.3f", ev.Epoch, cs.Name, cs.EnergyWh, prev[i])
			}
			prev[i] = cs.EnergyWh
			alive += cs.Alive
		}
		if alive != topo.Servers {
			t.Fatalf("epoch %d class alive sums to %d, want %d", ev.Epoch, alive, topo.Servers)
		}
	}
}

// TestFleetChaosTopologyMismatch is the guard the chaos layer needs
// once topologies are generated: a schedule resolved for one shape
// must not replay against another. All three axes — servers, units,
// zones — fail loudly at construction.
func TestFleetChaosTopologyMismatch(t *testing.T) {
	cfg := fleetCfg(t, 24)
	topo := mustNew(t, cfg).Topology()
	p, err := chaos.ParseProfile("crash=5")
	if err != nil {
		t.Fatal(err)
	}
	epochs := 50

	// Resolved for the right shape: constructs fine.
	good, err := p.ResolveFor(1, epochs, topo.ChaosTopology())
	if err != nil {
		t.Fatal(err)
	}
	okCfg := cfg
	okCfg.Strategy = hybrid(t)
	okCfg.Chaos = good
	if _, err := New(okCfg); err != nil {
		t.Fatalf("matched schedule rejected: %v", err)
	}

	cases := []struct {
		name string
		topo chaos.Topology
		want string
	}{
		{"servers", chaos.Topology{Servers: topo.Servers + 1, Units: topo.Units, Zones: topo.Zones, ZoneMembers: nil}, "servers"},
		{"units", chaos.Topology{Servers: topo.Servers, Units: topo.Units + 1, Zones: topo.Zones, ZoneMembers: nil}, "battery units"},
		{"zones", chaos.Topology{Servers: topo.Servers, Units: topo.Units, Zones: topo.Zones + 1, ZoneMembers: nil}, "zones"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched, err := p.ResolveFor(1, epochs, tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			bad := cfg
			bad.Strategy = hybrid(t)
			bad.Chaos = sched
			if _, err := New(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("mismatched %s schedule: New = %v, want error mentioning %q", tc.name, err, tc.want)
			}
		})
	}

	// The legacy Resolve path (two contiguous zones) against a
	// three-zone fleet must also fail on the zone axis.
	three := cfg
	three.Strategy = hybrid(t)
	three.Fleet = &fleet.Spec{
		Name:         "threezone",
		TotalServers: 24,
		RackSize:     8,
		Zones:        3,
		Seed:         11,
		Templates:    []fleet.Template{{Name: "web", Weight: 1, BatteryAh: 10, Panels: 3}},
	}
	legacy, err := p.Resolve(1, epochs, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	three.Chaos = legacy
	if _, err := New(three); err == nil || !strings.Contains(err.Error(), "zones") {
		t.Errorf("legacy schedule vs 3-zone fleet: New = %v, want zones error", err)
	}
}

// TestFleetZoneOutage runs a fleet under a zone-outage profile
// resolved against the generated zone membership and verifies the
// cascade strikes exactly the zone's servers: during the outage the
// per-class alive census drops by the zone's class census, and it
// recovers afterwards.
func TestFleetZoneOutage(t *testing.T) {
	cfg := fleetCfg(t, 24)
	topo := mustNew(t, cfg).Topology()
	p, err := chaos.ParseProfile("zone=5")
	if err != nil {
		t.Fatal(err)
	}
	e := mustNew(t, cfg)
	total := e.TotalEpochs()

	// Find a seed whose timeline has a mid-run zone outage that
	// recovers before the end (deterministic search, like the flat
	// chaos tests).
	var sched *chaos.Schedule
	var zone, strike int
	for seed := int64(1); seed < 1000 && sched == nil; seed++ {
		s, err := p.ResolveFor(seed, total, topo.ChaosTopology())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range s.Faults {
			if f.Mode != chaos.ZoneOutage || f.Cascade {
				continue
			}
			if f.Epoch >= 2 && f.Recover > f.Epoch && f.Recover < total-2 {
				sched, zone, strike = s, f.Target, f.Epoch
				break
			}
		}
	}
	if sched == nil {
		t.Fatal("no seed under 1000 yields a usable zone outage")
	}

	downByClass := make([]int, len(topo.Classes))
	for _, s := range topo.ZoneMembers()[zone] {
		downByClass[topo.ClassOf(s)]++
	}

	run := cfg
	run.Strategy = hybrid(t)
	run.Chaos = sched
	var buf strings.Builder
	run.Sink = obs.NewJSONL(&buf)
	mustRunAll(t, mustNew(t, run))

	sawOutage := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Chaos != "" || ev.Epoch != strike {
			continue
		}
		sawOutage = true
		for i, cs := range ev.Classes {
			want := topo.Classes[i].Servers - downByClass[i]
			if cs.Alive != want {
				t.Errorf("outage epoch %d class %q alive = %d, want %d (zone %d holds %d of its servers)",
					strike, cs.Name, cs.Alive, want, zone, downByClass[i])
			}
		}
	}
	if !sawOutage {
		t.Fatalf("no epoch record at strike epoch %d", strike)
	}
}

// TestFleetCheckpointRoundTrip cuts a checkpoint from a mid-run
// 10,000-server fleet engine, sends it through JSON, restores into a
// fresh engine and demands the stitched run match the uninterrupted
// reference bit for bit — records, aggregates, per-class energy and
// knob transitions.
func TestFleetCheckpointRoundTrip(t *testing.T) {
	cfg := fleetCfg(t, 10_000)
	ref := mustRunAll(t, mustNew(t, cfg))

	half := fleetCfg(t, 10_000)
	e := mustNew(t, half)
	stopAt := e.TotalEpochs() / 2
	for i := 0; i < stopAt; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != CheckpointVersion || cp.ClassFleet == nil || cp.FleetFingerprint == "" {
		t.Fatalf("fleet checkpoint lacks v4 state: version %d, class fleet %v, fingerprint %q",
			cp.Version, cp.ClassFleet != nil, cp.FleetFingerprint)
	}
	b, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustNew(t, fleetCfg(t, 10_000))
	if err := fresh.Restore(got); err != nil {
		t.Fatalf("restore fleet checkpoint: %v", err)
	}
	res := mustRunAll(t, fresh)
	assertSameResult(t, ref, res)
	if wt, gt := ref.ClassFleet.Transitions(), res.ClassFleet.Transitions(); wt != gt {
		t.Errorf("knob transitions = %d, want %d", gt, wt)
	}
	if len(res.ClassEnergyWh) != len(ref.ClassEnergyWh) {
		t.Fatalf("ClassEnergyWh lengths differ: %d vs %d", len(res.ClassEnergyWh), len(ref.ClassEnergyWh))
	}
	for i := range ref.ClassEnergyWh {
		if res.ClassEnergyWh[i] != ref.ClassEnergyWh[i] {
			t.Errorf("class %d energy = %v, want %v", i, res.ClassEnergyWh[i], ref.ClassEnergyWh[i])
		}
	}

	// A checkpoint cut from one topology must refuse another: same
	// spec, different seed.
	other := fleetCfg(t, 10_000)
	other.Fleet.Seed++
	if err := mustNew(t, other).Restore(got); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("restore into reseeded topology = %v, want fingerprint error", err)
	}
	// And a paper-rack engine must refuse a fleet checkpoint outright.
	if err := mustNew(t, ckptConfig(t)).Restore(got); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Errorf("restore fleet checkpoint into paper-rack engine = %v, want fleet topology error", err)
	}
}
