// Package config defines the JSON configuration consumed by the
// GreenSprint executables (greensprint-sim, greensprintd): workload
// selection, Table I green-provisioning option, strategy, burst shape
// and supply-trace source.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/workload"
)

// Duration wraps time.Duration with JSON "10m" string encoding.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("config: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Config is the top-level tool configuration.
type Config struct {
	// Workload is a Table II name: SPECjbb, Web-Search, Memcached.
	Workload string `json:"workload"`
	// Green is a Table I name: RE-Batt, REOnly, RE-SBatt, SRE-SBatt.
	Green string `json:"green"`
	// Strategy is Normal, Greedy, Parallel, Pacing or Hybrid.
	Strategy string `json:"strategy"`
	// Burst shape.
	BurstIntensity int      `json:"burst_intensity"`
	BurstDuration  Duration `json:"burst_duration"`
	// Availability selects the synthetic supply window (Min, Med,
	// Max) when no trace file is given.
	Availability string `json:"availability"`
	// SupplyTrace optionally names a CSV power trace replayed as
	// the renewable supply (NREL-style, as written by tracegen).
	SupplyTrace string `json:"supply_trace,omitempty"`
	// Epoch is the scheduling epoch (default 5m).
	Epoch Duration `json:"epoch,omitempty"`
	// Lead and Tail are non-burst periods around the burst.
	Lead Duration `json:"lead,omitempty"`
	Tail Duration `json:"tail,omitempty"`
}

// Default returns the canonical experiment: SPECjbb, RE-Batt, Hybrid,
// a 30-minute Int=12 burst at medium availability.
func Default() Config {
	return Config{
		Workload:       "SPECjbb",
		Green:          "RE-Batt",
		Strategy:       "Hybrid",
		BurstIntensity: 12,
		BurstDuration:  Duration(30 * time.Minute),
		Availability:   "Med",
		Epoch:          Duration(5 * time.Minute),
	}
}

// Validate resolves and checks every field.
func (c Config) Validate() error {
	if _, err := c.WorkloadProfile(); err != nil {
		return err
	}
	if _, err := c.GreenConfig(); err != nil {
		return err
	}
	if !slices.Contains(strategy.Names(), c.Strategy) {
		return fmt.Errorf("config: unknown strategy %q", c.Strategy)
	}
	if c.BurstIntensity < 1 || c.BurstIntensity > 12 {
		return fmt.Errorf("config: burst intensity %d outside [1,12]", c.BurstIntensity)
	}
	if c.BurstDuration.Std() <= 0 {
		return fmt.Errorf("config: non-positive burst duration")
	}
	if c.Epoch < 0 || c.Lead < 0 || c.Tail < 0 {
		return fmt.Errorf("config: negative epoch %v, lead %v or tail %v", c.Epoch.Std(), c.Lead.Std(), c.Tail.Std())
	}
	if c.SupplyTrace == "" {
		if _, err := c.AvailabilityLevel(); err != nil {
			return err
		}
	}
	// Bound the horizon before anything is sized from it: the records
	// and chaos timeline at the run's epoch, and a synthesized supply
	// trace at its 1-minute step.
	step := c.Epoch.Std()
	if step == 0 {
		step = sim.DefaultEpoch
	}
	if c.SupplyTrace == "" {
		step = min(step, time.Minute)
	}
	if err := sim.CheckHorizon(c.Lead.Std(), c.BurstDuration.Std(), c.Tail.Std(), step); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// WorkloadProfile resolves the workload.
func (c Config) WorkloadProfile() (workload.Profile, error) {
	return workload.ByName(c.Workload)
}

// GreenConfig resolves the Table I option.
func (c Config) GreenConfig() (cluster.GreenConfig, error) {
	return cluster.ByName(c.Green)
}

// AvailabilityLevel resolves the availability class.
func (c Config) AvailabilityLevel() (solar.Availability, error) {
	switch c.Availability {
	case "Min":
		return solar.Min, nil
	case "Med":
		return solar.Med, nil
	case "Max":
		return solar.Max, nil
	default:
		return 0, fmt.Errorf("config: unknown availability %q (want Min, Med or Max)", c.Availability)
	}
}

// Read parses a config from r.
func Read(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Load reads a config file.
func Load(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: open: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// Write serializes c to w with indentation.
func (c Config) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
