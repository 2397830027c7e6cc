// Package rl implements the tabular Q-learning machinery behind the
// paper's Hybrid strategy (§III-B). The power-management problem is an
// MDP whose state is the (quantized) power supply and workload
// intensity measured during the previous epoch, whose actions are the
// server settings S (core count × frequency), and whose reward is the
// paper's Algorithm 1, combining a power reward (supply vs. demand)
// and a QoS reward (target vs. achieved latency).
package rl

import (
	"fmt"
	"math"

	"greensprint/internal/server"
	"greensprint/internal/units"
)

// The paper's hyper-parameters.
const (
	// DefaultLearningRate is Algorithm 1's α (0.7: learn quickly).
	DefaultLearningRate = 0.7
	// DefaultDiscount is γ (0.9: balance short-term and future).
	DefaultDiscount = 0.9
	// DefaultPowerStep is the supply-quantization step: 5% of the
	// idle-to-max-sprint power range.
	DefaultPowerStep = 0.05
)

// State is the MDP state c_t: quantized power supply and workload
// intensity level, both as measured during the previous epoch.
// It is serialized inside the Hybrid strategy's wire state (the last
// (state, action) pair), so the json tags pin its historical wire
// names.
type State struct {
	// PowerLevel indexes the quantized supply from 0 (≤ idle power)
	// to 1/step (≥ max sprint power).
	PowerLevel int `json:"PowerLevel"`
	// LoadLevel is the workload intensity level L.
	LoadLevel int `json:"LoadLevel"`
	// Degraded is the quantized degraded-capacity level: 0 for a
	// healthy fleet (every pre-chaos state), rising as crashed
	// servers or faded batteries shrink the rack's effective
	// capacity. Keeping it a separate dimension lets the policy
	// learn fault-mode behaviour without forgetting healthy-mode
	// estimates.
	Degraded int `json:"Degraded"`
}

// DegradedLevels is the number of degraded-capacity buckets (0 =
// healthy .. DegradedLevels-1 = mostly lost).
const DegradedLevels = 4

// Valid reports whether s is a state the quantizers can produce: no
// negative level and a degraded level below DegradedLevels. A restored
// table or pending decision holding any other state is rejected, since
// Table.Update would drop its learning or persist a row no epoch
// reads.
func (s State) Valid() bool {
	return s.PowerLevel >= 0 && s.LoadLevel >= 0 && s.Degraded >= 0 && s.Degraded < DegradedLevels
}

// DegradedLevel quantizes an effective-capacity fraction (alive
// fraction × battery health) into a State.Degraded bucket. Fractions
// at or above 1 map to the healthy bucket 0; non-positive fractions
// (everything lost) to the worst bucket. Callers with no degradation
// signal pass 1, never 0.
func DegradedLevel(frac float64) int {
	if frac >= 1 {
		return 0
	}
	if frac <= 0 {
		return DegradedLevels - 1
	}
	lvl := int((1 - frac) * DegradedLevels)
	if lvl >= DegradedLevels {
		lvl = DegradedLevels - 1
	}
	return lvl
}

// Quantizer maps a raw power supply onto PowerLevel indices. The range
// runs "from the point of idle server power to the point of maximum
// sprinting power" (§III-B).
type Quantizer struct {
	Min  units.Watt
	Max  units.Watt
	Step float64 // fraction of the range per level, e.g. 0.05
}

// NewQuantizer builds the paper's quantizer for a per-server power
// range with the default 5% step.
func NewQuantizer(idle, maxSprint units.Watt) Quantizer {
	return Quantizer{Min: idle, Max: maxSprint, Step: DefaultPowerStep}
}

// Levels returns the number of quantization levels.
func (q Quantizer) Levels() int {
	if q.Step <= 0 {
		return 1
	}
	return int(math.Round(1/q.Step)) + 1
}

// Level quantizes a power value.
func (q Quantizer) Level(p units.Watt) int {
	if q.Max <= q.Min || q.Step <= 0 {
		return 0
	}
	frac := float64(p-q.Min) / float64(q.Max-q.Min)
	lvl := int(math.Round(frac / q.Step))
	if lvl < 0 {
		lvl = 0
	}
	if max := q.Levels() - 1; lvl > max {
		lvl = max
	}
	return lvl
}

// Reward computes Algorithm 1's reward r_t.
//
//	Rpower = PowerSupp / PowerCurr
//	Rqos   = QoStarget / QoScurrent
//	if Rpower > 1:
//	    if Rqos > 1: r = Rpower + Rqos + 1
//	    else:        r = Rpower - Rqos + 1
//	else:            r = -Rpower - 1
//
// powerCurr and qosCurrent at or below zero are treated as barely
// passing (ratio clamped high) to keep the arithmetic total.
func Reward(powerSupp, powerCurr units.Watt, qosTarget, qosCurrent float64) float64 {
	rPower := ratio(float64(powerSupp), float64(powerCurr))
	rQoS := ratio(qosTarget, qosCurrent)
	if rPower > 1 {
		if rQoS > 1 {
			return rPower + rQoS + 1
		}
		return rPower - rQoS + 1
	}
	return -rPower - 1
}

// ShapedReward is the reward signal the Hybrid strategy actually
// learns from. Algorithm 1's violated-QoS branch (r = Rpower − Rqos + 1)
// decreases in Rqos, which — taken literally as an argmax target —
// would teach the controller to prefer settings that serve the burst
// *worse* whenever no affordable setting fully meets the SLA, and the
// controller would collapse to Normal mode under medium supply. That
// contradicts the paper's own results (Hybrid dominates at medium
// availability), so the shaped variant keeps Algorithm 1's structure
// and feasibility gating but makes reward monotone in delivered QoS:
//
//	Rpower ≤ 1 (supply violated): r = −Rpower − 1        (as Alg. 1)
//	Rpower > 1, QoS met:          r = Rpower + QoSWeight·Rqos + 1
//	Rpower > 1, QoS violated:     r = Rpower + QoSWeight·Rqos − 1
//
// The QoS term is additionally capped slightly above 1: once the SLA
// is met with margin, extra latency headroom earns nothing more, so the
// power term decides and the policy converges to the *cheapest* setting
// that serves the load (the paper's Figure 10b insight that maximal
// sprinting is wasteful at low burst intensity). QoSWeight > 1 makes
// service quality dominate power frugality below the cap — the paper's
// Eq. 3 objective under its power-safety constraint. DESIGN.md §5
// records this substitution.
func ShapedReward(powerSupp, powerCurr units.Watt, qosTarget, qosCurrent float64) float64 {
	const (
		qosWeight = 4
		qosCap    = 1.05
	)
	rPower := ratio(float64(powerSupp), float64(powerCurr))
	rQoS := ratio(qosTarget, qosCurrent)
	if rPower <= 1 {
		return -rPower - 1
	}
	met := rQoS > 1
	if rQoS > qosCap {
		rQoS = qosCap
	}
	r := qosWeight*rQoS + rPower
	if met {
		return r + 1
	}
	return r - 1
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		// No demand / no measured latency: supply trivially covers
		// it. Cap to keep rewards bounded.
		return 10
	}
	r := num / den
	if r > 10 {
		r = 10
	}
	return r
}

// Table is the Q lookup table R(c, a). Actions are indices into
// server.Configs().
type Table struct {
	alpha, gamma float64
	actions      []server.Config
	// q maps each materialized state to its row in rows, which holds
	// the rows in creation order.
	q    map[State]int
	rows []qRow
	// order lists the indices of rows in (power, load, degraded)
	// order, the order the persisted form lists them in. It changes
	// only when a row is created.
	order []int
	// hot is the index of the row written last: Seed fills a state's
	// actions one after another, so row checks it before hashing.
	hot int
	// head caches the persisted form's constant prefix, up to and
	// including `"states":`; AppendJSON builds it on first use.
	head []byte
}

// qRow is one state's Q estimates and the compact JSON encoding of its
// persisted entry. enc is a pure function of (s, q); every write to q
// sets dirty, and AppendJSON re-encodes a dirty row it lists before
// copying enc, so a snapshot only pays for the rows written since the
// last.
type qRow struct {
	s     State
	q     []float64
	enc   []byte
	dirty bool
}

// NewTable creates a Q-table over the full knob space with the paper's
// hyper-parameters. It returns an error for out-of-range parameters.
func NewTable(alpha, gamma float64) (*Table, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("rl: learning rate %v outside (0,1]", alpha)
	}
	if gamma < 0 || gamma >= 1 {
		return nil, fmt.Errorf("rl: discount %v outside [0,1)", gamma)
	}
	return &Table{
		alpha:   alpha,
		gamma:   gamma,
		actions: server.Configs(),
		q:       make(map[State]int),
	}, nil
}

// Actions returns the action set (the knob space).
func (t *Table) Actions() []server.Config { return t.actions }

// row returns (allocating if needed) the Q row for a state, marked
// dirty because every caller writes to it. The pointer is valid until
// the next row is created. Only the write paths (Update, Seed,
// ReadJSON) materialize rows; the read paths treat a missing row as
// all-zero so the per-epoch Decide loop never allocates and never
// bloats the persisted table with untouched states.
func (t *Table) row(s State) *qRow {
	if t.hot >= len(t.rows) || t.rows[t.hot].s != s {
		i, ok := t.q[s]
		if !ok {
			i = t.insert(s)
		}
		t.hot = i
	}
	r := &t.rows[t.hot]
	r.dirty = true
	return r
}

// insert materializes an all-zero row for s, files it in order and
// returns its index in rows.
func (t *Table) insert(s State) int {
	idx := len(t.rows)
	//greensprint:allow(allocfree) materializes a Q row once per newly visited state; revisits (the steady state) never reach this
	t.rows = append(t.rows, qRow{s: s, q: make([]float64, len(t.actions))})
	t.q[s] = idx
	i, hi := 0, len(t.order)
	for i < hi {
		if mid := int(uint(i+hi) >> 1); t.rows[t.order[mid]].s.less(s) {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	//greensprint:allow(allocfree) the state order grows once per newly visited state, like the rows
	t.order = append(t.order, 0)
	copy(t.order[i+1:], t.order[i:])
	t.order[i] = idx
	return idx
}

// less orders states by power level, then load level, then degraded
// level.
func (s State) less(o State) bool {
	if s.PowerLevel != o.PowerLevel {
		return s.PowerLevel < o.PowerLevel
	}
	if s.LoadLevel != o.LoadLevel {
		return s.LoadLevel < o.LoadLevel
	}
	return s.Degraded < o.Degraded
}

// Row returns a read-only view of the Q row for s, or nil when the
// state has never been written (every action's estimate is then 0).
// It never allocates; callers iterating many actions of one state
// fetch the row once instead of paying a map lookup per action.
// Callers must not modify the returned slice.
func (t *Table) Row(s State) []float64 {
	if i, ok := t.q[s]; ok {
		return t.rows[i].q
	}
	return nil
}

// Q returns the current estimate R(s, a).
func (t *Table) Q(s State, action int) float64 {
	if action < 0 || action >= len(t.actions) {
		return 0
	}
	if i, ok := t.q[s]; ok {
		return t.rows[i].q[action]
	}
	return 0
}

// maxQ returns max_a R(s,a).
func (t *Table) maxQ(s State) float64 {
	row := t.Row(s)
	if row == nil {
		return 0 // all-zero row
	}
	best := math.Inf(-1)
	for _, v := range row {
		if v > best {
			best = v
		}
	}
	return best
}

// Update applies the paper's line 15:
//
//	R(c,a) ← R(c,a) + α[r + γ·max_a' R(c',a') − R(c,a)]
func (t *Table) Update(s State, action int, reward float64, next State) {
	if action < 0 || action >= len(t.actions) {
		return
	}
	row := t.row(s).q
	row[action] += t.alpha * (reward + t.gamma*t.maxQ(next) - row[action])
}

// Seed initializes R(s,a) directly; used to bootstrap the table from
// the Parallel/Pacing profiling data as §III-B describes.
func (t *Table) Seed(s State, action int, value float64) {
	if action < 0 || action >= len(t.actions) {
		return
	}
	t.row(s).q[action] = value
}

// States returns the number of states materialized so far.
func (t *Table) States() int { return len(t.q) }
