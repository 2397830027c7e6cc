// Package strategy implements the paper's four power-management
// strategies (§III-B) plus the Normal baseline:
//
//	Normal   — never sprint: S0 (6 cores @ 1.2 GHz).
//	Greedy   — sprint at the maximum intensity whenever the supply can
//	           carry it; otherwise fall back to Normal.
//	Parallel — scale only the core count (frequency pinned at max).
//	Pacing   — scale only the frequency (all cores active).
//	Hybrid   — Q-learning over the joint core×frequency space,
//	           bootstrapped from the profiling table and updated each
//	           epoch with the reward mechanism.
//
// Every strategy decides a per-server setting for the next scheduling
// epoch from the profiling table (LoadPower(L,S)), the predicted
// workload level and the per-server power budget the PSS can commit —
// solving the paper's Eq. 2/3 power-mismatch problem by exhaustive
// search over the (small) knob space.
package strategy

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"greensprint/internal/jsonw"
	"greensprint/internal/profile"
	"greensprint/internal/rl"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// Inputs carries everything a strategy may consult when choosing the
// next epoch's setting for one green server.
type Inputs struct {
	// Table is the workload's profiling table.
	Table *profile.Table
	// PredictedRate is the EWMA-predicted per-server offered rate
	// for the next epoch (L_pre in the paper).
	PredictedRate float64
	// Budget is the per-server power the PSS can commit for the
	// epoch (green prediction + Peukert-sustainable battery share).
	Budget units.Watt
	// Epoch is the scheduling-epoch length.
	Epoch time.Duration
	// SprintFraction estimates, for a per-server demand, the
	// fraction of the epoch the PSS can power it before the battery
	// floor ends the sprint (1 = the whole epoch). When nil, a
	// demand within Budget is treated as fully sustainable and
	// anything above it as unsustainable. Strategies use it to value
	// partial-epoch sprints: the paper's prototype burns the battery
	// at full intensity and lets the sprint end mid-epoch rather
	// than refusing to sprint at all. Within one Decide it must
	// return the same value for the same demand, and it must not
	// increase as demand grows. Strategies probe each candidate
	// setting at most once per Decide, so callers need no memo of
	// their own.
	SprintFraction func(units.Watt) float64
	// AliveFraction is the share of green servers currently up (1
	// when no chaos is active) and BatteryHealth the bank's mean
	// capacity-fade multiplier. Failure-aware strategies fold them
	// into their state so degraded-capacity epochs are learned
	// separately from healthy ones. The zero value means "no
	// degradation signal" and is treated as fully healthy, so
	// callers that predate chaos keep their exact behaviour.
	AliveFraction float64
	BatteryHealth float64
}

// effectiveCapacity collapses the degradation signals into one
// capacity fraction, mapping unset (zero) fields to healthy.
func (in Inputs) effectiveCapacity() float64 {
	alive, health := in.AliveFraction, in.BatteryHealth
	if alive == 0 {
		alive = 1
	}
	if health == 0 {
		health = 1
	}
	return alive * health
}

// fraction returns the sustainable fraction of the epoch for a
// per-server demand.
func (in Inputs) fraction(p units.Watt) float64 {
	if in.SprintFraction != nil {
		f := in.SprintFraction(p)
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	if p <= in.Budget {
		return 1
	}
	return 0
}

// Feedback carries the measured outcome of the previous epoch, used by
// learning strategies.
type Feedback struct {
	// Chosen is the setting that ran.
	Chosen server.Config
	// Supply is the per-server power that was actually available.
	Supply units.Watt
	// Power is the per-server power actually drawn.
	Power units.Watt
	// Offered and Goodput are the per-server request rates.
	Offered float64
	Goodput float64
	// Latency is the measured SLA-percentile latency in seconds of
	// served requests (+Inf if overloaded).
	Latency float64
	// Next is the strategy input for the upcoming epoch (the MDP's
	// successor state).
	Next Inputs
}

// Strategy chooses a per-server sprinting intensity each epoch.
type Strategy interface {
	// Name returns the paper's strategy name.
	Name() string
	// Decide picks the setting for the next epoch.
	Decide(in Inputs) server.Config
	// Learn feeds back the measured outcome of the previous epoch.
	Learn(fb Feedback)
	// SnapshotState serializes the strategy's internal learning
	// state for checkpointing. Stateless strategies return nil.
	SnapshotState() (json.RawMessage, error)
	// RestoreState replaces the strategy's internal state with a
	// previously snapshotted one. Stateless strategies accept only
	// an empty state. On error the strategy is left as it was, so a
	// caller restoring several layers can restore it last and roll
	// back only the others.
	RestoreState(raw json.RawMessage) error
}

// Stateless provides the no-op snapshot half of the Strategy interface
// for strategies without internal learning state; embed it.
type Stateless struct{}

// SnapshotState implements Strategy: nothing to capture.
func (Stateless) SnapshotState() (json.RawMessage, error) { return nil, nil }

// RestoreState implements Strategy: only an empty state is valid.
func (Stateless) RestoreState(raw json.RawMessage) error {
	if len(raw) > 0 {
		return fmt.Errorf("strategy: stateless strategy cannot restore %d bytes of state", len(raw))
	}
	return nil
}

// Normal is the non-sprinting baseline.
type Normal struct{ Stateless }

// Name implements Strategy.
func (Normal) Name() string { return "Normal" }

// Decide implements Strategy.
func (Normal) Decide(Inputs) server.Config { return server.Normal() }

// Learn implements Strategy.
func (Normal) Learn(Feedback) {}

// Greedy activates all cores at the highest frequency whenever the
// budget sustains it, with no prediction of future green production
// (§III-B); otherwise it returns to Normal.
type Greedy struct{ Stateless }

// Name implements Strategy.
func (Greedy) Name() string { return "Greedy" }

// Decide implements Strategy: Greedy demands the maximum intensity
// whenever any sprint-capable supply exists — even if the battery will
// end the sprint mid-epoch — and otherwise returns to Normal. It has
// no middle ground, which is why it wastes green supply periods that
// are too weak to carry the full sprint.
func (Greedy) Decide(in Inputs) server.Config {
	if in.Table == nil {
		return server.Normal()
	}
	level := in.Table.LevelFor(in.PredictedRate)
	if p, ok := in.Table.LoadPower(level, server.MaxSprint()); ok {
		if in.fraction(p) > 0.02 {
			return server.MaxSprint()
		}
	}
	return server.Normal()
}

// Learn implements Strategy.
func (Greedy) Learn(Feedback) {}

// Parallel scales only the core count, pinning the frequency at the
// maximum.
type Parallel struct{ Stateless }

// Name implements Strategy.
func (Parallel) Name() string { return "Parallel" }

// Decide implements Strategy.
func (Parallel) Decide(in Inputs) server.Config {
	return bestWithin(in, func(c server.Config) bool { return c.Freq == units.FreqMax })
}

// Learn implements Strategy.
func (Parallel) Learn(Feedback) {}

// Pacing scales only the frequency, keeping every core active.
type Pacing struct{ Stateless }

// Name implements Strategy.
func (Pacing) Name() string { return "Pacing" }

// Decide implements Strategy.
func (Pacing) Decide(in Inputs) server.Config {
	return bestWithin(in, func(c server.Config) bool { return c.Cores == server.MaxCores })
}

// Learn implements Strategy.
func (Pacing) Learn(Feedback) {}

// bestWithin picks the setting (among those admitted by filter) with
// the highest expected epoch goodput, valuing partial-epoch sprints:
// a setting the battery can only power for fraction f of the epoch
// delivers f·goodput(S) + (1−f)·goodput(Normal). Ties break toward
// lower power. Normal is always a candidate.
func bestWithin(in Inputs, filter func(server.Config) bool) server.Config {
	if in.Table == nil {
		return server.Normal()
	}
	level := in.Table.LevelFor(in.PredictedRate)
	normal, _ := in.Table.Lookup(level, server.Normal())
	normalGood := normal.Goodput
	best, bestVal, bestPower := server.Normal(), normalGood, normal.Power
	for _, e := range in.Table.LevelEntries(level) {
		c := e.Config()
		if filter != nil && !filter(c) {
			continue
		}
		f := in.fraction(e.Power)
		if f <= 0 {
			continue
		}
		val := f*e.Goodput + (1-f)*normalGood
		if val > bestVal+1e-9 || (val > bestVal-1e-9 && e.Power < bestPower) {
			best, bestVal, bestPower = c, val, e.Power
		}
	}
	return best
}

// Hybrid combines core-count and frequency scaling with tabular
// Q-learning (§III-B). Its state is the quantized per-server supply
// and the workload level; its actions are the full knob space; its
// reward is the shaped Algorithm 1 signal (see rl.ShapedReward). The
// table is bootstrapped from the profiling data so the very first
// decisions are already sensible, then refined online.
type Hybrid struct {
	table *rl.Table
	// hybridSeed is the part of the Hybrid that depends only on its
	// seed key, shared read-only with every Hybrid built from the same
	// key and profiling table.
	*hybridSeed
	quantizer rl.Quantizer
	profile   workload.Profile
	profTable *profile.Table
	opts      HybridOptions
	// fracs is Decide's scratch: the sprint fraction of each action at
	// the current level, read by both the Q pass and the burn pass;
	// probed marks the actions whose fraction this Decide has asked
	// SprintFraction for.
	fracs  []float64 //greensprint:allow(statecov) per-Decide scratch: every fraction Decide reads is written earlier in the same Decide
	probed []bool    //greensprint:allow(statecov) per-Decide scratch: cleared for the level's actions at the start of every Decide
	// last links the previous decision to the next state for the
	// Q update.
	last pending
}

// hybridSeed is the derived, read-only part of a Hybrid: a pure
// function of its seedKey and profiling table, built once per key by
// bootstrap, kept on the profiling table (profile.Memo) and shared by
// every Hybrid built from that key. Nothing writes it after bootstrap.
// It is never checkpointed: NewHybrid derives it again from the same
// inputs.
type hybridSeed struct {
	// seed is the Q-table as bootstrap left it. Each Hybrid learns into
	// its own Clone of it; SnapshotState lists only the rows that
	// differ from it, and RestoreState overlays them onto a copy of it.
	seed *rl.Table
	// byPower lists, per level, the profiled action indices in order
	// of rising power (ties by action index), so Decide can bisect the
	// sprint fractions instead of probing every action.
	byPower [][]int
}

// seedKey is everything besides the profiling table that a
// hybridSeed depends on. DisableBurnValue changes only Decide, so it
// is not part of the key.
type seedKey struct {
	profile workload.Profile
	quant   rl.Quantizer
	literal bool
}

// pending is a decision awaiting its Learn: the state it was taken in
// and its action index, valid until Learn consumes it.
type pending struct {
	valid  bool
	state  rl.State
	action int
}

// HybridOptions tunes the Hybrid strategy away from the paper's
// defaults; the zero value reproduces the paper (5% quantization,
// shaped reward). Used by experiments.QuantizationSweep and
// experiments.RewardAblation.
type HybridOptions struct {
	// QuantizationStep overrides the 5% power-state step.
	QuantizationStep float64
	// LiteralReward switches learning to the verbatim Algorithm 1
	// reward instead of the shaped variant (see rl.ShapedReward for
	// why the default is shaped).
	LiteralReward bool
	// DisableBurnValue removes the expected-goodput comparison from
	// Decide, leaving a pure greedy-Q policy. With it disabled, the
	// policy's quality depends entirely on the reward signal — the
	// ablation that shows the literal Algorithm 1 reward collapsing
	// to Normal mode.
	DisableBurnValue bool
}

// NewHybrid builds a Hybrid strategy for one workload, bootstrapping
// the Q-table from its profiling table.
func NewHybrid(p workload.Profile, tab *profile.Table) (*Hybrid, error) {
	return NewHybridWithOptions(p, tab, HybridOptions{})
}

// NewHybridWithOptions builds a Hybrid with explicit tuning.
func NewHybridWithOptions(p workload.Profile, tab *profile.Table, opts HybridOptions) (*Hybrid, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tab == nil {
		return nil, fmt.Errorf("strategy: hybrid needs a profiling table")
	}
	quant := rl.NewQuantizer(server.IdlePower, p.PeakPower)
	if step := opts.QuantizationStep; step > 0 {
		if step > 1 {
			return nil, fmt.Errorf("strategy: quantization step %v outside (0,1]", step)
		}
		// Levels is round(1/step)+1; bound it in floating point, where
		// a tiny step cannot overflow int, before anything is sized.
		if math.Round(1/step)+1 > profile.MaxLevels {
			return nil, fmt.Errorf("strategy: quantization step %v gives more than %d levels", step, profile.MaxLevels)
		}
		quant.Step = step
	}
	key := seedKey{profile: p, quant: quant, literal: opts.LiteralReward}
	hs, err := profile.Memo(tab, key, func() (*hybridSeed, error) { return bootstrap(key, tab) })
	if err != nil {
		return nil, err
	}
	na := len(hs.seed.Actions())
	return &Hybrid{
		table:      hs.seed.Clone(),
		hybridSeed: hs,
		quantizer:  quant,
		profile:    p,
		profTable:  tab,
		opts:       opts,
		fracs:      make([]float64, na),
		probed:     make([]bool, na),
	}, nil
}

// bootstrap builds the per-key part of a Hybrid: it orders each
// level's actions by power and seeds a Q-table with one-step rewards
// estimated from the profiling data ("we learn the initial values of
// lookup table from the profiling data collected by Parallel and
// Pacing"). The effective latency of a (level, action) cell does not
// depend on the power level, so it is computed once per cell and
// reused across all ~21 quantized power levels instead of re-running
// the sojourn bisection for each.
func bootstrap(k seedKey, tab *profile.Table) (*hybridSeed, error) {
	qt, err := rl.NewTable(rl.DefaultLearningRate, rl.DefaultDiscount, k.quant.Levels(), tab.Levels)
	if err != nil {
		return nil, err
	}
	na := len(qt.Actions())
	lats := make([]float64, len(tab.Entries))
	for i, e := range tab.Entries {
		lats[i] = EffectiveLatency(k.profile, e.Config(), e.OfferedRate)
	}
	hs := &hybridSeed{seed: qt, byPower: make([][]int, tab.Levels)}
	flat := make([]int, 0, len(tab.Entries))
	for ll := range hs.byPower {
		cells := tab.Entries[ll*na : (ll+1)*na]
		start := len(flat)
		for ai := range cells {
			flat = append(flat, ai)
		}
		order := flat[start:]
		slices.SortStableFunc(order, func(i, j int) int {
			return cmp.Compare(cells[i].Power, cells[j].Power)
		})
		hs.byPower[ll] = order
	}
	for pl := 0; pl < k.quant.Levels(); pl++ {
		supply := supplyOf(k.quant, pl)
		for i, e := range tab.Entries {
			r := reward(k.literal, supply, e.Power, k.profile.Deadline, lats[i])
			qt.Seed(rl.State{PowerLevel: pl, LoadLevel: e.Level}, i%na, r)
		}
	}
	return hs, nil
}

// supplyOf converts a power level back to the center of its bucket.
func supplyOf(q rl.Quantizer, level int) units.Watt {
	frac := float64(level) * q.Step
	return q.Min + units.Watt(frac*float64(q.Max-q.Min))
}

// Name implements Strategy.
func (*Hybrid) Name() string { return "Hybrid" }

// stateFor derives the MDP state from strategy inputs. The degraded
// dimension is 0 for healthy epochs — every pre-chaos state lands in
// the bucket the bootstrap seeded — and rises with lost capacity, so
// fault-mode experience accumulates in its own rows instead of
// overwriting healthy-mode estimates (the RARE-style degraded-capacity
// state feature).
func (h *Hybrid) stateFor(in Inputs) rl.State {
	return rl.State{
		PowerLevel: h.quantizer.Level(in.Budget),
		LoadLevel:  h.profTable.LevelFor(in.PredictedRate),
		Degraded:   rl.DegradedLevel(in.effectiveCapacity()),
	}
}

// Decide implements Strategy. Among settings the PSS can power for the
// whole epoch, Hybrid takes the greedy Q action (power-provision
// safety plus learned QoS/efficiency trade-offs). It then compares
// that choice against the best partial-epoch "burn": a setting the
// battery can only sustain for part of the epoch may still deliver
// more total goodput (the paper's observation that maximal sprinting
// on batteries is the best policy for SPECjbb). The higher expected
// goodput wins; Normal remains the fallback when nothing is powerable.
func (h *Hybrid) Decide(in Inputs) server.Config {
	st := h.stateFor(in)
	cells := h.levelCells(st.LoadLevel)
	normalGood := cells[normalAction].Goodput
	h.sprintFractions(in, h.byPower[st.LoadLevel], cells)
	fracs := h.fracs
	// Greedy Q action among fully sustainable settings. The row is
	// fetched once (nil for an unseen state, meaning all-zero
	// estimates), and cells is indexed by action.
	row := h.table.Row(st)
	bestIdx, bestQ, bestQGood := -1, math.Inf(-1), 0.0
	for ai := range cells {
		if fracs[ai] < 0.999 {
			continue
		}
		q := 0.0
		if row != nil {
			q = row[ai]
		}
		if q > bestQ {
			bestIdx, bestQ, bestQGood = ai, q, cells[ai].Goodput
		}
	}
	if h.opts.DisableBurnValue {
		if bestIdx < 0 {
			h.last.valid = false
			return server.Normal()
		}
		h.last.valid = true
		h.last.state = st
		h.last.action = bestIdx
		return h.table.Actions()[bestIdx]
	}
	// Best partial-epoch burn by expected goodput.
	burnIdx, burnVal := -1, normalGood
	for ai := range cells {
		f := fracs[ai]
		if f <= 0 {
			continue
		}
		if v := f*cells[ai].Goodput + (1-f)*normalGood; v > burnVal+1e-9 {
			burnIdx, burnVal = ai, v
		}
	}
	chosen := -1
	switch {
	case bestIdx >= 0 && bestQGood >= burnVal-1e-9:
		chosen = bestIdx
	case burnIdx >= 0:
		chosen = burnIdx
	}
	if chosen < 0 {
		h.last.valid = false
		return server.Normal()
	}
	h.last.valid = true
	h.last.state = st
	h.last.action = chosen
	return h.table.Actions()[chosen]
}

// normalAction is server.Normal()'s action index.
var normalAction = server.Index(server.Normal())

// levelCells returns the profiling table's cells at a level, indexed
// by action.
func (h *Hybrid) levelCells(level int) []profile.Entry {
	n := server.NumConfigs()
	return h.profTable.Entries[level*n : (level+1)*n]
}

// sprintFractions fills fracs with the sprint fraction of every
// profiled action at the level; order is the level's byPower list.
// SprintFraction does not increase with demand, so along order the
// fractions run from a prefix of exact 1s through a partial band down
// to a suffix of exact 0s. Two bisections with the real predicate find
// the band's ends; the prefix and suffix take 1 and 0 without a probe,
// and only the band is probed, each action at most once. The values are
// those probing every action would give.
func (h *Hybrid) sprintFractions(in Inputs, order []int, cells []profile.Entry) {
	for _, ai := range order {
		h.probed[ai] = false
	}
	// order[:one] have fraction 1.
	lo, hi := 0, len(order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.probe(in, order[mid], cells) < 1 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	one := lo
	// order[zero:] have fraction 0.
	lo, hi = one, len(order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.probe(in, order[mid], cells) > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	zero := lo
	for _, ai := range order[:one] {
		h.fracs[ai] = 1
	}
	for _, ai := range order[one:zero] {
		h.probe(in, ai, cells)
	}
	for _, ai := range order[zero:] {
		h.fracs[ai] = 0
	}
}

// probe returns action ai's sprint fraction, asking SprintFraction only
// on the first call of a Decide.
func (h *Hybrid) probe(in Inputs, ai int, cells []profile.Entry) float64 {
	if !h.probed[ai] {
		h.fracs[ai] = in.fraction(cells[ai].Power)
		h.probed[ai] = true
	}
	return h.fracs[ai]
}

// Learn implements Strategy: updates R(c_t, a_t) from the measured
// epoch outcome using the shaped Algorithm 1 reward.
func (h *Hybrid) Learn(fb Feedback) {
	if !h.last.valid {
		return
	}
	lat := fb.Latency
	if fb.Goodput < fb.Offered*0.999 && fb.Offered > 0 {
		// Shedding: degrade the effective latency by the unserved
		// share, as EffectiveLatency does.
		lat = h.profile.Deadline * fb.Offered / math.Max(fb.Goodput, 1e-9)
	}
	r := reward(h.opts.LiteralReward, fb.Supply, fb.Power, h.profile.Deadline, lat)
	h.table.Update(h.last.state, h.last.action, r, h.stateFor(fb.Next))
	h.last.valid = false
}

// reward dispatches to the literal Algorithm 1 reward or the shaped
// default.
func reward(literal bool, supp, curr units.Watt, target, current float64) float64 {
	if literal {
		return rl.Reward(supp, curr, target, current)
	}
	return rl.ShapedReward(supp, curr, target, current)
}

// QTable exposes the learned table for inspection and ablation.
func (h *Hybrid) QTable() *rl.Table { return h.table }

// EffectiveLatency returns the SLA-relevant latency of running profile
// p at config c under offered load: the SLA-percentile sojourn time
// when the load is fully served, or the deadline inflated by the
// unserved share when the setting sheds load. It is finite and
// monotone in the setting's capacity, which the learning layer needs.
// It delegates to the process-level memoized queueing kernel, so the
// QoS-capacity bisection behind Goodput runs once per (profile,
// config) instead of once per call; the cached values are exact, so
// results are bit-identical to the direct computation.
func EffectiveLatency(p workload.Profile, c server.Config, offered float64) float64 {
	return workload.SharedKernel(p).EffectiveLatency(c, offered)
}

// ByName builds a single strategy by its paper name.
func ByName(name string, p workload.Profile, tab *profile.Table) (Strategy, error) {
	switch name {
	case "Normal":
		return Normal{}, nil
	case "Greedy":
		return Greedy{}, nil
	case "Parallel":
		return Parallel{}, nil
	case "Pacing":
		return Pacing{}, nil
	case "Hybrid":
		return NewHybrid(p, tab)
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q", name)
	}
}

// Names lists all five strategies.
func Names() []string { return []string{"Normal", "Greedy", "Parallel", "Pacing", "Hybrid"} }

// SaveQ writes the learned Q-table in the rl package's indented
// persisted format, for inspection; SnapshotState carries it across
// restarts.
func (h *Hybrid) SaveQ(w io.Writer) error { return h.table.WriteJSON(w) }

// hybridState is the serialized form of a Hybrid's mutable state: the
// learned Q-table (in the rl package's persisted format, which pins
// the knob space) plus the pending decision→feedback link when a
// snapshot is taken between Decide and Learn. The table lists only the
// rows that left the bootstrap seed: those the seed lacks and those
// whose values differ from it. SnapshotState writes the bytes
// json.Marshal writes for hybridState without reflection.
type hybridState struct {
	QTable json.RawMessage `json:"q_table"`
	Last   *hybridLast     `json:"last,omitempty"`
}

type hybridLast struct {
	State  rl.State `json:"state"`
	Action int      `json:"action"`
}

// SnapshotState implements Strategy. It writes the bytes json.Marshal
// writes for hybridState, with the Q-table appended against the seed
// by rl's row-cached encoder instead of a marshal round trip.
func (h *Hybrid) SnapshotState() (json.RawMessage, error) {
	b, err := h.table.AppendJSON(append([]byte(nil), `{"q_table":`...), h.seed)
	if err != nil {
		return nil, fmt.Errorf("strategy: snapshot hybrid: %w", err)
	}
	w := jsonw.Writer{B: b, OK: true}
	if p := h.last; p.valid {
		w.Int(`,"last":{"state":{"PowerLevel":`, int64(p.state.PowerLevel))
		w.Int(`,"LoadLevel":`, int64(p.state.LoadLevel))
		w.Int(`,"Degraded":`, int64(p.state.Degraded))
		w.Int(`},"action":`, int64(p.action))
		w.B = append(w.B, '}')
	}
	return append(w.B, '}'), nil
}

// RestoreState implements Strategy: the stored rows overlay a copy of
// the seed, so a state listing every row, as written before snapshots
// listed only the changed ones, restores the same table. It rejects a
// Q-table from a different knob space, a state, stored or pending,
// outside the seed's levels and a pending action outside the knob
// space, before it copies any row. On error the strategy is left as it
// was.
func (h *Hybrid) RestoreState(raw json.RawMessage) error {
	if len(raw) == 0 {
		return fmt.Errorf("strategy: hybrid cannot restore an empty state")
	}
	var st hybridState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("strategy: restore hybrid: %w", err)
	}
	var p pending
	if st.Last != nil {
		p = pending{valid: true, state: st.Last.State, action: st.Last.Action}
		if na := len(h.seed.Actions()); !h.seed.Covers(p.state) || p.action < 0 || p.action >= na {
			return fmt.Errorf("strategy: restore hybrid: pending decision (state %+v, action %d) outside the Q-table's levels or the %d-action knob space",
				p.state, p.action, na)
		}
	}
	t, err := rl.ReadJSON(st.QTable, h.seed)
	if err != nil {
		return fmt.Errorf("strategy: restore hybrid: %w", err)
	}
	h.table, h.last = t, p
	return nil
}
