// Package pmk implements GreenSprint's Power Management Knob: the
// actuator that applies a sprinting intensity (active core count and
// frequency level) chosen by the strategy layer. The paper's prototype
// uses cpufreq for frequency scaling and taskset for core binding;
// this package provides two pieces:
//
//   - ClassFleet: the modelled knob herd of a rack or fleet — one
//     setting per server class plus the individually actuated
//     (crashed) servers — with per-server transition accounting. Both
//     control loops, the simulator and the controller, actuate it.
//   - Sysfs: a Knob that writes CPU online masks and cpufreq limits
//     under a configurable sysfs root, for running the greensprintd
//     daemon on a real host. The root is injectable so tests exercise
//     the exact write path against a temp directory.
package pmk

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"greensprint/internal/server"
)

// Knob applies sprinting settings to one server.
type Knob interface {
	// Apply transitions the server to config c.
	Apply(c server.Config) error
	// Current returns the last successfully applied config.
	Current() server.Config
}

// Sysfs drives a Linux host through the cpufreq/hotplug sysfs files:
//
//	<root>/cpu<N>/online                       (0/1 core activation)
//	<root>/cpu<N>/cpufreq/scaling_max_freq     (kHz frequency cap)
//
// The default root is /sys/devices/system/cpu. CPU 0 is never taken
// offline (Linux does not allow it).
type Sysfs struct {
	// Root is the sysfs CPU directory.
	Root string
	// TotalCores is the number of cpuN directories to manage.
	TotalCores int

	mu  sync.Mutex
	cur server.Config
}

// NewSysfs returns a sysfs knob for the paper's 12-core servers.
func NewSysfs(root string) *Sysfs {
	if root == "" {
		root = "/sys/devices/system/cpu"
	}
	return &Sysfs{Root: root, TotalCores: server.MaxCores, cur: server.Normal()}
}

// Apply implements Knob: it onlines the first c.Cores CPUs, offlines
// the rest, and caps every online CPU's frequency.
func (s *Sysfs) Apply(c server.Config) error {
	if !c.Valid() {
		return fmt.Errorf("pmk: invalid config %v", c)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for cpu := 0; cpu < s.TotalCores; cpu++ {
		online := cpu < c.Cores
		if cpu > 0 { // cpu0 cannot be offlined on Linux
			v := "0"
			if online {
				v = "1"
			}
			if err := s.write(filepath.Join(s.cpuDir(cpu), "online"), v); err != nil {
				return err
			}
		}
		if online {
			khz := strconv.Itoa(int(c.Freq) * 1000)
			if err := s.write(filepath.Join(s.cpuDir(cpu), "cpufreq", "scaling_max_freq"), khz); err != nil {
				return err
			}
		}
	}
	s.cur = c
	return nil
}

// Current implements Knob.
func (s *Sysfs) Current() server.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

func (s *Sysfs) cpuDir(cpu int) string {
	return filepath.Join(s.Root, fmt.Sprintf("cpu%d", cpu))
}

// write pushes one knob value to the kernel. Sysfs attributes must be
// written in place: sysfs is a virtual filesystem that forbids
// arbitrary file creation and rename, and a knob (cpuN/online,
// cpufreq/scaling_max_freq) only takes effect when the existing
// attribute file itself is written. The value is a kernel control
// input, not persisted state — nothing ever reads it back after a
// crash — so the atomicfile tmp+rename invariant does not apply (and
// would fail with EPERM under the real /sys/devices/system/cpu root).
func (s *Sysfs) write(path, value string) error {
	//greensprint:allow(atomicwrite) sysfs kernel knob: must be written in place (sysfs forbids create+rename), not persisted state
	if err := os.WriteFile(path, []byte(value+"\n"), 0o644); err != nil {
		return fmt.Errorf("pmk: write %s: %w", path, err)
	}
	return nil
}

// KnobSnapshot is one server's knob state in the flat per-knob
// checkpoint layout: the applied setting plus its transition count.
type KnobSnapshot struct {
	Config      server.Config `json:"config"`
	Transitions int           `json:"transitions"`
}

// FleetSnapshot is the flat per-knob checkpoint layout, one knob per
// server in server order. Checkpoints cut before the knob herd
// (ClassFleet) existed carry it; ClassFleet.RestoreFlat migrates it.
type FleetSnapshot struct {
	Knobs []KnobSnapshot `json:"knobs"`
}
