// Package server models the compute nodes of the GreenSprint
// prototype: dual-socket Intel Xeon E5-2620 machines with 12 cores,
// nine frequency states from 1.2 GHz to 2.0 GHz, and ~76 W idle power.
// Sprinting scales the active core count from 6 up to 12 and the
// frequency up to 2.0 GHz; the Normal (non-sprinting) mode is 6 cores
// at 1.2 GHz.
//
// The package provides the knob space (the paper's two-dimensional
// sprinting-intensity set S, ordered from S0 = Normal to Sr = maximum
// sprint) and a calibrated analytic power model that maps a knob
// setting and utilization to wall power.
package server

import (
	"fmt"
	"math"

	"greensprint/internal/units"
)

// Config is one sprinting intensity: an active core count and a
// frequency level. It is the paper's S_j. Config is serialized inside
// checkpoints and epoch records; the json tags pin its historical wire
// names.
type Config struct {
	Cores int       `json:"Cores"`
	Freq  units.MHz `json:"Freq"`
}

// String renders like "8c@1.5GHz". Settings inside the knob space
// read a table built once, so per-epoch event emission formats nothing.
func (c Config) String() string {
	if i := Index(c); i >= 0 {
		return configNames[i]
	}
	return c.format()
}

func (c Config) format() string {
	return fmt.Sprintf("%dc@%s", c.Cores, c.Freq)
}

// configNames holds every knob setting's String form in Configs order.
var configNames = func() []string {
	cs := Configs()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.format()
	}
	return names
}()

// Testbed constants from the paper's prototype.
const (
	// MinCores is the Normal-mode active core count.
	MinCores = 6
	// MaxCores is the full (sprinting) core count.
	MaxCores = 12
	// IdlePower is the measured idle draw of one server.
	IdlePower units.Watt = 76
	// NormalPower is the per-server grid budget: the paper sizes
	// the grid at 1000 W for 10 servers in Normal mode.
	NormalPower units.Watt = 100
)

// Normal is S0: the non-sprinting baseline setting.
func Normal() Config { return Config{Cores: MinCores, Freq: units.FreqMin} }

// MaxSprint is Sr: the maximum sprinting setting.
func MaxSprint() Config { return Config{Cores: MaxCores, Freq: units.FreqMax} }

// Frequencies returns the 9 available P-states in ascending order.
func Frequencies() []units.MHz {
	var out []units.MHz
	for f := units.FreqMin; f <= units.FreqMax; f += units.FreqStep {
		out = append(out, f)
	}
	return out
}

// Configs enumerates the full knob space S in ascending order of
// (cores, freq): 7 core counts × 9 frequencies = 63 settings, from S0
// (6 cores @ 1.2 GHz) to Sr (12 cores @ 2.0 GHz).
func Configs() []Config {
	var out []Config
	for n := MinCores; n <= MaxCores; n++ {
		for _, f := range Frequencies() {
			out = append(out, Config{Cores: n, Freq: f})
		}
	}
	return out
}

// NumConfigs is the size of the knob space S (len(Configs())).
func NumConfigs() int {
	return (MaxCores - MinCores + 1) * numFreqs()
}

func numFreqs() int {
	return int((units.FreqMax-units.FreqMin)/units.FreqStep) + 1
}

// Index returns c's position in Configs() order, or -1 when c is
// outside the knob space. It is allocation-free, so hot paths can key
// dense per-config tables by it instead of hashing Config structs.
func Index(c Config) int {
	if !c.Valid() {
		return -1
	}
	fi := int((c.Freq - units.FreqMin) / units.FreqStep)
	return (c.Cores-MinCores)*numFreqs() + fi
}

// Valid reports whether the config is inside the knob space.
func (c Config) Valid() bool {
	if c.Cores < MinCores || c.Cores > MaxCores {
		return false
	}
	if c.Freq < units.FreqMin || c.Freq > units.FreqMax {
		return false
	}
	// Must be on a 100 MHz grid point.
	r := math.Mod(float64(c.Freq-units.FreqMin), float64(units.FreqStep))
	return r == 0
}

// IsSprinting reports whether the config exceeds Normal mode in either
// dimension.
func (c Config) IsSprinting() bool {
	n := Normal()
	return c.Cores > n.Cores || c.Freq > n.Freq
}

// PowerModel maps a knob setting and utilization to server wall power.
// Dynamic power is proportional to the active core count and follows
// the classic DVFS composition: a frequency-linear (capacitive,
// fixed-voltage) share plus a cubic (voltage-scaled) share.
//
//	P(c, f, u) = Idle + u · c · perCore(f)
//	perCore(f) = PeakDynamic/MaxCores · ((1-CubicShare)·f/fmax + CubicShare·(f/fmax)³)
//
// PeakDynamic is calibrated per application from the paper's measured
// maximal sprinting powers (155 W SPECjbb, 156 W Web-Search, 146 W
// Memcached, all including the 76 W idle). Deactivated cores enter
// deep sleep and shave a little static power off the idle floor
// (CoreSleepSave per parked core).
type PowerModel struct {
	Idle units.Watt
	// PeakDynamic is the dynamic power at the maximum sprint with
	// full utilization (peak wall power minus idle).
	PeakDynamic units.Watt
	// CubicShare is the fraction of per-core dynamic power that
	// scales cubically with frequency (voltage scaling); the rest
	// scales linearly.
	CubicShare float64
	// CoreSleepSave is the static power saved per deactivated core.
	CoreSleepSave units.Watt
}

// NewPowerModel builds a model from a measured peak wall power at the
// maximum sprint.
func NewPowerModel(peak units.Watt) PowerModel {
	return PowerModel{
		Idle:          IdlePower,
		PeakDynamic:   peak - IdlePower,
		CubicShare:    0.35,
		CoreSleepSave: 1.5,
	}
}

// Power returns the wall power at config c and utilization u ∈ [0,1].
// Out-of-range utilizations are clamped.
func (m PowerModel) Power(c Config, util float64) units.Watt {
	util = math.Min(math.Max(util, 0), 1)
	static := float64(m.Idle) - float64(MaxCores-c.Cores)*float64(m.CoreSleepSave)
	return units.Watt(static + util*float64(c.Cores)*m.perCore(c.Freq))
}

func (m PowerModel) perCore(f units.MHz) float64 {
	r := float64(f) / float64(units.FreqMax)
	shape := (1-m.CubicShare)*r + m.CubicShare*r*r*r
	return float64(m.PeakDynamic) / float64(MaxCores) * shape
}

// PeakPower returns the wall power at the maximum sprint, fully
// utilized — the paper's per-application "maximal sprinting power
// demand".
func (m PowerModel) PeakPower() units.Watt {
	return m.Power(MaxSprint(), 1)
}
