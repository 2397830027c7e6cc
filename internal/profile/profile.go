// Package profile builds and queries the a-priori profiling tables of
// §III-B: "We measure and collect the power demand (LoadPower_j(L,S))
// of an individual workload for each server setting S and workload
// intensity level L with a priori knowledge using an exhaustive method
// on real servers." In this reproduction the exhaustive measurement
// runs against the analytic server/workload models; the resulting
// table is what the Parallel, Pacing and Hybrid strategies consult at
// run time, and what bootstraps the Hybrid Q-table.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// DefaultLevels is the default number of workload-intensity levels
// (the paper's L1..Lw).
const DefaultLevels = 10

// MaxLevels bounds a table's level count: Build and ReadJSON reject
// more, before they allocate anything sized from it. A table holds
// Levels × server.NumConfigs() entries, and a Hybrid's Q-table index
// grows with the same count.
const MaxLevels = 1000

// Entry is one profiled (level, setting) cell.
type Entry struct {
	// Level is the workload intensity level index (0-based).
	Level int `json:"level"`
	// Config is the server setting S.
	Cores int       `json:"cores"`
	Freq  units.MHz `json:"freq_mhz"`
	// OfferedRate is the per-server arrival rate of this level.
	OfferedRate float64 `json:"offered_rate"`
	// Power is LoadPower(L,S): wall power at this level and setting.
	Power units.Watt `json:"power_w"`
	// Goodput is the QoS-compliant throughput delivered.
	Goodput float64 `json:"goodput"`
	// NormPerf is Goodput normalized to Normal-mode max goodput.
	NormPerf float64 `json:"norm_perf"`
}

// Config returns the entry's server setting.
func (e Entry) Config() server.Config {
	return server.Config{Cores: e.Cores, Freq: e.Freq}
}

// Table is the full profiling table for one workload. A Table is
// read-only after Build/ReadJSON; all query methods and Memo are safe
// for concurrent use on such a table, which lets parallel sweep cells
// share one instance (see BuildCached).
type Table struct {
	Workload string  `json:"workload"`
	Levels   int     `json:"levels"`
	MaxRate  float64 `json:"max_rate"`
	// Entries holds every cell, level-major in server.Configs()
	// order: cell (L, S) is Entries[L·server.NumConfigs() +
	// server.Index(S)]. Build and ReadJSON guarantee the layout.
	Entries []Entry `json:"entries"`

	byLevel [][]Entry // entries per level, sorted by power
	// derived holds the values Memo shares, keyed by the caller's key.
	derived sync.Map
}

// Build profiles p exhaustively over every knob setting and `levels`
// intensity levels spaced evenly from MaxRate/levels to MaxRate, where
// MaxRate is the Int=12 saturation rate. It profiles through the
// workload's shared workload.Kernel, so the per-config QoS bisection
// runs once per setting and process instead of once per (level,
// setting) cell; the resulting entries are bit-identical to profiling
// the raw Profile.
func Build(p workload.Profile, levels int) (*Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkLevels(levels); err != nil {
		return nil, err
	}
	k := workload.SharedKernel(p)
	maxRate := k.IntensityRate(server.MaxCores)
	base := k.MaxGoodput(server.Normal())
	t := &Table{Workload: p.Name, Levels: levels, MaxRate: maxRate,
		Entries: make([]Entry, 0, levels*server.NumConfigs())}
	for lvl := 0; lvl < levels; lvl++ {
		rate := maxRate * float64(lvl+1) / float64(levels)
		for _, c := range server.Configs() {
			good := k.Goodput(c, rate)
			t.Entries = append(t.Entries, Entry{
				Level:       lvl,
				Cores:       c.Cores,
				Freq:        c.Freq,
				OfferedRate: rate,
				Power:       k.LoadPower(c, rate),
				Goodput:     good,
				NormPerf:    good / base,
			})
		}
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// buildKey identifies one cached build: the full profile value plus
// the level count, so any knob difference produces a distinct table.
type buildKey struct {
	p      workload.Profile
	levels int
}

var (
	buildMu    sync.Mutex
	buildCache = map[buildKey]*Table{}
)

// BuildCached is a process-level, mutex-guarded memo over Build:
// identical (workload, levels) requests — e.g. the thousands of sweep
// cells that profile the same three workloads — share one immutable
// *Table instead of re-running the exhaustive profiling per cell. The
// returned table must be treated as read-only.
func BuildCached(p workload.Profile, levels int) (*Table, error) {
	k := buildKey{p: p, levels: levels}
	buildMu.Lock()
	defer buildMu.Unlock()
	if t, ok := buildCache[k]; ok {
		return t, nil
	}
	t, err := Build(p, levels)
	if err != nil {
		return nil, err
	}
	buildCache[k] = t
	return t, nil
}

// Memo returns the value build makes for key from t, calling build only
// while t holds no value for key, and sharing that value with every
// later call for the same key. It keeps what other packages derive
// from a table (a pure function of the table and key, such as a Hybrid
// Q-table seed) for as long as the table lives, where a package-level
// map keyed by table would keep every table alive. Callers that miss
// on the same key at once may each run build; the first value stored
// is the one every caller gets, so build must give equal values. An
// error is returned and nothing is stored, and so is a key that is not
// equal to itself (one holding a NaN), which no later call could find.
// The value must be treated as read-only. Callers key with their own
// unexported type, so two packages' keys never collide.
func Memo[K comparable, V any](t *Table, key K, build func() (V, error)) (V, error) {
	if v, ok := t.derived.Load(key); ok {
		return v.(V), nil
	}
	v, err := build()
	if err != nil || key != key {
		return v, err
	}
	got, _ := t.derived.LoadOrStore(key, v)
	return got.(V), nil
}

func checkLevels(levels int) error {
	if levels < 1 || levels > MaxLevels {
		return fmt.Errorf("profile: level count %d outside [1,%d]", levels, MaxLevels)
	}
	return nil
}

// index checks the Entries layout and builds byLevel: each level's
// cells, copied and sorted by power.
func (t *Table) index() error {
	if err := checkLevels(t.Levels); err != nil {
		return err
	}
	cs := server.Configs()
	n := len(cs)
	if len(t.Entries) != t.Levels*n {
		return fmt.Errorf("profile: %d entries, want %d levels × %d settings", len(t.Entries), t.Levels, n)
	}
	for i, e := range t.Entries {
		if e.Level != i/n || e.Config() != cs[i%n] {
			return fmt.Errorf("profile: entry %d is (level %d, %v), want (level %d, %v)", i, e.Level, e.Config(), i/n, cs[i%n])
		}
	}
	sorted := slices.Clone(t.Entries)
	t.byLevel = make([][]Entry, t.Levels)
	for l := range t.byLevel {
		es := sorted[l*n : (l+1)*n : (l+1)*n]
		sort.Slice(es, func(i, j int) bool { return es[i].Power < es[j].Power })
		t.byLevel[l] = es
	}
	return nil
}

// LevelFor quantizes an offered rate to the nearest profiled level
// (level i covers rates around (i+1)·MaxRate/Levels). Rates at or
// above MaxRate clamp to the top level and rates at or below the first
// level's midpoint clamp to level 0; NaN also maps to level 0. The
// clamping happens in floating point *before* the int conversion: the
// previous int(rate/step+0.5) form fed out-of-range floats (huge
// rates, +Inf) straight into the conversion, whose result is
// implementation-defined in Go and wraps negative on amd64 — an
// overloaded station's +Inf rate would quantize to the *lowest*
// intensity level instead of the highest.
func (t *Table) LevelFor(rate float64) int {
	if t.Levels <= 0 || t.MaxRate <= 0 {
		return 0
	}
	step := t.MaxRate / float64(t.Levels)
	q := rate/step + 0.5
	switch {
	case math.IsNaN(q) || q < 1:
		return 0
	case q >= float64(t.Levels+1):
		return t.Levels - 1
	}
	return int(q) - 1
}

// Lookup returns the entry for (level, config), and false when the
// level or config is outside the table.
func (t *Table) Lookup(level int, c server.Config) (Entry, bool) {
	ci := server.Index(c)
	if level < 0 || level >= len(t.byLevel) || ci < 0 {
		return Entry{}, false
	}
	return t.Entries[level*server.NumConfigs()+ci], true
}

// LoadPower returns LoadPower(L,S) for a profiled cell, or false when
// the cell is not in the table.
func (t *Table) LoadPower(level int, c server.Config) (units.Watt, bool) {
	e, ok := t.Lookup(level, c)
	return e.Power, ok
}

// BestWithin returns the profiled setting with the highest goodput at
// `level` whose LoadPower fits within budget, among settings admitted
// by filter (nil admits all). Ties break toward lower power. The
// boolean is false when no admitted setting fits.
func (t *Table) BestWithin(level int, budget units.Watt, filter func(server.Config) bool) (Entry, bool) {
	if level < 0 || level >= len(t.byLevel) {
		return Entry{}, false
	}
	var best Entry
	found := false
	n := server.NumConfigs()
	for _, e := range t.Entries[level*n : (level+1)*n] {
		if e.Power > budget {
			continue
		}
		if filter != nil && !filter(e.Config()) {
			continue
		}
		if !found || e.Goodput > best.Goodput ||
			(e.Goodput == best.Goodput && e.Power < best.Power) {
			best, found = e, true
		}
	}
	return best, found
}

// LevelEntries returns the entries of one level sorted by ascending
// power. The slice is the table's cached copy — built once at index
// time instead of filtered and sorted on every call, since strategies
// consult it every scheduling epoch — so callers must not modify it.
func (t *Table) LevelEntries(level int) []Entry {
	if level < 0 || level >= len(t.byLevel) {
		return nil
	}
	return t.byLevel[level]
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON deserializes a table written by WriteJSON. It rejects a
// level count outside [1, MaxLevels] and entries that are not every
// (level, setting) cell exactly once in Build's order.
func ReadJSON(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return &t, nil
}
