package config

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greensprint/internal/sim"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Workload = "nope" },
		func(c *Config) { c.Green = "nope" },
		func(c *Config) { c.Strategy = "nope" },
		func(c *Config) { c.BurstIntensity = 0 },
		func(c *Config) { c.BurstIntensity = 13 },
		func(c *Config) { c.BurstDuration = 0 },
		func(c *Config) { c.Availability = "Sometimes" },
		func(c *Config) { c.Epoch = Duration(-5 * time.Minute) },
		func(c *Config) { c.Lead = Duration(-2 * time.Hour) },
		func(c *Config) { c.Tail = Duration(-time.Second) },
		// One epoch past sim.MaxEpochs at the run's epoch, and for the
		// synthesized 1-minute supply under 5-minute epochs.
		func(c *Config) {
			c.Epoch = Duration(time.Minute)
			c.BurstDuration = Duration((sim.MaxEpochs + 1) * time.Minute)
		},
		func(c *Config) { c.BurstDuration = Duration((sim.MaxEpochs + 1) * time.Minute) },
		// lead + burst overflows time.Duration.
		func(c *Config) { c.Lead = Duration(math.MaxInt64 - 10*time.Minute) },
	}
	for i, mut := range mutations {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
	}
	// A trace file replaces the availability requirement.
	c := Default()
	c.Availability = ""
	c.SupplyTrace = "trace.csv"
	if err := c.Validate(); err != nil {
		t.Errorf("trace-backed config should validate: %v", err)
	}
	// Without a synthesized trace only the run's epochs are bounded.
	c.BurstDuration = Duration((sim.MaxEpochs + 1) * time.Minute)
	if err := c.Validate(); err != nil {
		t.Errorf("trace-backed config at %d 5-minute epochs should validate: %v", (sim.MaxEpochs+5)/5, err)
	}
}

func TestResolvers(t *testing.T) {
	c := Default()
	p, err := c.WorkloadProfile()
	if err != nil || p.Name != "SPECjbb" {
		t.Errorf("workload: %v %v", p.Name, err)
	}
	g, err := c.GreenConfig()
	if err != nil || g.Name != "RE-Batt" {
		t.Errorf("green: %v %v", g.Name, err)
	}
	for _, name := range []string{"Min", "Med", "Max"} {
		c.Availability = name
		if _, err := c.AvailabilityLevel(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Default()
	c.Lead = Duration(10 * time.Minute)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"burst_duration": "30m0s"`) {
		t.Errorf("duration encoding: %s", buf.String())
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("round trip: %+v vs %+v", back, c)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		`{bad`,
		`{"workload":"SPECjbb","unknown_field":1}`,
		`{"workload":"SPECjbb","green":"RE-Batt","strategy":"Hybrid","burst_intensity":12,"burst_duration":"xyz","availability":"Med"}`,
		`{"workload":"nope","green":"RE-Batt","strategy":"Hybrid","burst_intensity":12,"burst_duration":"10m","availability":"Med"}`,
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	var buf bytes.Buffer
	if err := Default().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload != "SPECjbb" {
		t.Errorf("loaded = %+v", c)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestDurationUnmarshalErrors(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`42`)); err == nil {
		t.Error("non-string should error")
	}
	if err := d.UnmarshalJSON([]byte(`"nope"`)); err == nil {
		t.Error("bad duration should error")
	}
	if err := d.UnmarshalJSON([]byte(`"90s"`)); err != nil || d.Std() != 90*time.Second {
		t.Errorf("parse: %v %v", d, err)
	}
}
