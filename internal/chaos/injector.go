package chaos

import (
	"fmt"
	"slices"
)

// Action is one fault transition the simulation must apply this
// epoch: an injection (Recovered false) or a recovery (Recovered
// true).
type Action struct {
	Fault     Fault
	Recovered bool
}

// Injector replays a resolved Schedule against a run: Advance(epoch)
// returns the transitions due at that epoch and maintains ref-counted
// aggregate state (servers down, switch stuck, breaker forced, solar
// out) that the engine reads each epoch. Ref-counting — rather than
// booleans — is what keeps overlapping faults on one component from
// corrupting its state machine: a zone outage and an independent
// crash of the same server stack, and the server only comes back when
// *both* have recovered.
//
// Injector is mutable run state and therefore ships a
// Snapshot/Restore pair so chaos runs checkpoint and shard exactly
// like fault-free ones.
type Injector struct {
	schedule *Schedule
	cursor   int     // next schedule fault not yet injected
	active   []Fault // injected, recoverable, not yet recovered
	down     []int   // per-server down ref-count
	stuck    int     // PSS stuck-at-source ref-count
	breaker  int     // forced-breaker-open ref-count
	solar    int     // solar dropout ref-count
}

// NewInjector builds the replay cursor for a validated schedule.
func NewInjector(s *Schedule) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		schedule: s,
		down:     make([]int, s.Servers),
	}, nil
}

// Schedule returns the immutable timeline this injector replays.
func (in *Injector) Schedule() *Schedule { return in.schedule }

// Advance moves the injector to the given epoch and returns the
// transitions due, recoveries first (in activation order) then
// injections (in schedule order). Epochs must be visited in
// non-decreasing order; skipping epochs (as a resumed shard does via
// Restore, never via Advance) is not supported.
func (in *Injector) Advance(epoch int) []Action {
	var acts []Action
	// Recoveries due at or before this epoch fire first: a fault
	// whose window closed heals before new faults of the same epoch
	// land.
	kept := in.active[:0]
	for _, f := range in.active {
		if f.Recover != 0 && f.Recover <= epoch {
			in.release(f)
			//greensprint:allow(allocfree) actions materialize only on recovery epochs; StepN's idle fast path clips at NextTransition and never enters here
			acts = append(acts, Action{Fault: f, Recovered: true})
		} else {
			//greensprint:allow(allocfree) compacts in place into the active list's own backing array; never grows
			kept = append(kept, f)
		}
	}
	in.active = kept
	for in.cursor < len(in.schedule.Faults) && in.schedule.Faults[in.cursor].Epoch <= epoch {
		f := in.schedule.Faults[in.cursor]
		in.cursor++
		in.acquire(f)
		if f.Recover != 0 {
			//greensprint:allow(allocfree) active-fault list grows only on fault epochs, bounded by the schedule length
			in.active = append(in.active, f)
		}
		//greensprint:allow(allocfree) actions materialize only on fault epochs; bounded by the schedule length
		acts = append(acts, Action{Fault: f})
	}
	return acts
}

// NextTransition returns the earliest epoch at which the replay has a
// transition due — the next unfired schedule injection or the earliest
// recovery among active faults — or -1 when the timeline is exhausted.
// Engine fast paths use it to clip multi-epoch fast-forward segments:
// every epoch strictly before the returned value is guaranteed to see
// an empty Advance, so skipping those Advance calls is bit-identical
// to making them.
func (in *Injector) NextTransition() int {
	next := -1
	if in.cursor < len(in.schedule.Faults) {
		next = in.schedule.Faults[in.cursor].Epoch
	}
	for _, f := range in.active {
		if f.Recover != 0 && (next < 0 || f.Recover < next) {
			next = f.Recover
		}
	}
	return next
}

// acquire bumps the aggregate ref-counts for an injected fault.
func (in *Injector) acquire(f Fault) {
	switch f.Mode {
	case ServerCrash:
		in.down[f.Target]++
	case PSSStuck:
		in.stuck++
	case SolarDropout:
		in.solar++
	case BreakerTrip:
		in.breaker++
	}
	// BatteryDegrade is a permanent one-shot applied by the caller;
	// ZoneOutage is a marker whose constituents carry the counts.
}

// release drops the ref-counts acquired by f.
func (in *Injector) release(f Fault) {
	switch f.Mode {
	case ServerCrash:
		in.down[f.Target]--
	case PSSStuck:
		in.stuck--
	case SolarDropout:
		in.solar--
	case BreakerTrip:
		in.breaker--
	}
}

// ServerDown reports whether server i is currently crashed.
func (in *Injector) ServerDown(i int) bool { return in.down[i] > 0 }

// AliveServers counts servers not currently crashed.
func (in *Injector) AliveServers() int {
	n := 0
	for _, d := range in.down {
		if d == 0 {
			n++
		}
	}
	return n
}

// Stuck reports whether the PSS switch is currently welded to the
// utility source.
func (in *Injector) Stuck() bool { return in.stuck > 0 }

// BreakerForced reports whether a nuisance trip currently holds the
// breaker open.
func (in *Injector) BreakerForced() bool { return in.breaker > 0 }

// SolarFactor is the multiplier on green supply this epoch: 0 while
// any inverter dropout is active, 1 otherwise.
func (in *Injector) SolarFactor() float64 {
	if in.solar > 0 {
		return 0
	}
	return 1
}

// InjectorSnapshot is the serialized replay state. Seed and fault
// count fingerprint the schedule so a snapshot cannot silently
// restore onto a different timeline.
type InjectorSnapshot struct {
	Seed    int64   `json:"seed"`
	Faults  int     `json:"faults"`
	Cursor  int     `json:"cursor"`
	Active  []Fault `json:"active,omitempty"`
	Down    []int   `json:"down"`
	Stuck   int     `json:"stuck,omitempty"`
	Breaker int     `json:"breaker,omitempty"`
	Solar   int     `json:"solar,omitempty"`
}

// Snapshot captures the replay state for checkpointing.
func (in *Injector) Snapshot() InjectorSnapshot {
	s := InjectorSnapshot{
		Seed:    in.schedule.Seed,
		Faults:  len(in.schedule.Faults),
		Cursor:  in.cursor,
		Down:    append([]int(nil), in.down...),
		Stuck:   in.stuck,
		Breaker: in.breaker,
		Solar:   in.solar,
	}
	if len(in.active) > 0 {
		s.Active = append([]Fault(nil), in.active...)
	}
	return s
}

// Restore rewinds (or fast-forwards) the injector to a snapshot taken
// from an injector replaying the same schedule.
func (in *Injector) Restore(s InjectorSnapshot) error {
	if s.Seed != in.schedule.Seed {
		return fmt.Errorf("chaos: snapshot seed %d does not match schedule seed %d", s.Seed, in.schedule.Seed)
	}
	if s.Faults != len(in.schedule.Faults) {
		return fmt.Errorf("chaos: snapshot fingerprints %d faults, schedule has %d", s.Faults, len(in.schedule.Faults))
	}
	if s.Cursor < 0 || s.Cursor > len(in.schedule.Faults) {
		return fmt.Errorf("chaos: snapshot cursor %d outside schedule of %d faults", s.Cursor, len(in.schedule.Faults))
	}
	if len(s.Down) != len(in.down) {
		return fmt.Errorf("chaos: snapshot has %d servers, injector has %d", len(s.Down), len(in.down))
	}
	for i, d := range s.Down {
		if d < 0 {
			return fmt.Errorf("chaos: snapshot down count %d for server %d", d, i)
		}
	}
	if s.Stuck < 0 || s.Breaker < 0 || s.Solar < 0 {
		return fmt.Errorf("chaos: negative ref-count in snapshot")
	}
	// Every active fault is a recovering fault the cursor has already
	// passed; anything else would release ref-counts — or strike
	// components — the schedule never acquired.
	for i, f := range s.Active {
		if f.Recover == 0 {
			return fmt.Errorf("chaos: snapshot active fault %d has no recovery epoch", i)
		}
		if !slices.Contains(in.schedule.Faults[:s.Cursor], f) {
			return fmt.Errorf("chaos: snapshot active fault %d (%s) is not an injected fault of the schedule", i, f)
		}
	}
	in.cursor = s.Cursor
	in.active = append(in.active[:0], s.Active...)
	copy(in.down, s.Down)
	in.stuck = s.Stuck
	in.breaker = s.Breaker
	in.solar = s.Solar
	return nil
}
