package pmk

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"greensprint/internal/server"
)

func newSysfsFixture(t *testing.T) *Sysfs {
	t.Helper()
	root := t.TempDir()
	for cpu := 0; cpu < server.MaxCores; cpu++ {
		dir := filepath.Join(root, "cpu"+itoa(cpu), "cpufreq")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return NewSysfs(root)
}

func itoa(i int) string { return string(rune('0'+i/10)) + string(rune('0'+i%10)) }

func TestSysfsDefaults(t *testing.T) {
	k := NewSysfs("")
	if k.Root != "/sys/devices/system/cpu" {
		t.Errorf("default root = %q", k.Root)
	}
	if k.TotalCores != 12 {
		t.Errorf("total cores = %d", k.TotalCores)
	}
}

func TestSysfsApplyWritesFiles(t *testing.T) {
	// The fixture uses zero-padded names; point cpuDir at them via a
	// root holding cpu00..cpu11? Simpler: build unpadded dirs.
	root := t.TempDir()
	for cpu := 0; cpu < server.MaxCores; cpu++ {
		dir := filepath.Join(root, "cpu"+strings.TrimLeft(itoa(cpu), "0"))
		if cpu == 0 {
			dir = filepath.Join(root, "cpu0")
		}
		if err := os.MkdirAll(filepath.Join(dir, "cpufreq"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	k := NewSysfs(root)
	cfg := server.Config{Cores: 8, Freq: 1500}
	if err := k.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	if k.Current() != cfg {
		t.Errorf("current = %v", k.Current())
	}
	// CPU 3 online and capped at 1.5 GHz.
	b, err := os.ReadFile(filepath.Join(root, "cpu3", "online"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "1" {
		t.Errorf("cpu3 online = %q", b)
	}
	b, err = os.ReadFile(filepath.Join(root, "cpu3", "cpufreq", "scaling_max_freq"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "1500000" {
		t.Errorf("cpu3 max freq = %q", b)
	}
	// CPU 10 offline.
	b, err = os.ReadFile(filepath.Join(root, "cpu10", "online"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "0" {
		t.Errorf("cpu10 online = %q", b)
	}
	// CPU 0 has no online file written.
	if _, err := os.Stat(filepath.Join(root, "cpu0", "online")); !os.IsNotExist(err) {
		t.Error("cpu0 online file should not be written")
	}
}

// TestSysfsWriteInPlace is the real-host regression for Sysfs.write:
// sysfs is a virtual filesystem where arbitrary file creation and
// rename are not permitted, and a kernel knob (cpuN/online,
// cpufreq/scaling_max_freq) only takes effect when the existing
// attribute file is written in place. A tmp+rename implementation
// passes against a tmpfs fixture but fails with EPERM/ENOENT on the
// real /sys root — so this test pre-creates every attribute file the
// kernel would expose and asserts Apply (a) writes through those very
// files (the inode survives, proving no replacement-by-rename), and
// (b) creates no other file anywhere under the root.
func TestSysfsWriteInPlace(t *testing.T) {
	root := t.TempDir()
	var attrs []string
	for cpu := 0; cpu < server.MaxCores; cpu++ {
		dir := filepath.Join(root, "cpu"+strconv.Itoa(cpu), "cpufreq")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if cpu > 0 { // cpu0/online does not exist on Linux
			attrs = append(attrs, filepath.Join(root, "cpu"+strconv.Itoa(cpu), "online"))
		}
		attrs = append(attrs, filepath.Join(dir, "scaling_max_freq"))
	}
	before := make(map[string]os.FileInfo, len(attrs))
	for _, p := range attrs {
		if err := os.WriteFile(p, []byte("sentinel\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		before[p] = fi
	}

	k := NewSysfs(root)
	// MaxSprint onlines every core, so every pre-created attribute is
	// written exactly once.
	if err := k.Apply(server.MaxSprint()); err != nil {
		t.Fatal(err)
	}

	for _, p := range attrs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("attribute vanished (rename?): %v", err)
		}
		if !os.SameFile(before[p], fi) {
			t.Errorf("%s was replaced instead of written in place; sysfs forbids rename", p)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) == "sentinel\n" {
			t.Errorf("%s still holds the sentinel; knob value never written", p)
		}
	}
	b, err := os.ReadFile(filepath.Join(root, "cpu3", "cpufreq", "scaling_max_freq"))
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(int(server.MaxSprint().Freq)*1000) + "\n"; string(b) != want {
		t.Errorf("scaling_max_freq = %q, want %q", b, want)
	}

	// No scratch files: sysfs would reject any attempt to create one.
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			seen[path] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range attrs {
		delete(seen, p)
	}
	for p := range seen {
		t.Errorf("Apply created a file sysfs would forbid: %s", p)
	}
}

func TestSysfsApplyErrors(t *testing.T) {
	k := NewSysfs(filepath.Join(t.TempDir(), "missing"))
	if err := k.Apply(server.MaxSprint()); err == nil {
		t.Error("missing sysfs tree should error")
	}
	if err := k.Apply(server.Config{Cores: 1, Freq: 1200}); err == nil {
		t.Error("invalid config should be rejected before any write")
	}
}

// TestSimKnob pins the simulated knob the controller actuates: a
// one-server herd starts in Normal mode, counts each distinct change
// once, and rejects an invalid config without moving.
func TestSimKnob(t *testing.T) {
	k := NewClassFleet([]int{1}, func(int) int { return 0 })
	if k.Current(0) != server.Normal() {
		t.Errorf("initial = %v", k.Current(0))
	}
	if err := k.Apply(0, server.MaxSprint()); err != nil {
		t.Fatal(err)
	}
	if k.Current(0) != server.MaxSprint() {
		t.Errorf("current = %v", k.Current(0))
	}
	if k.Transitions() != 1 {
		t.Errorf("transitions = %d", k.Transitions())
	}
	// Re-applying the same config is not a transition.
	k.Apply(0, server.MaxSprint())
	k.ApplyAll(server.MaxSprint())
	if k.Transitions() != 1 {
		t.Errorf("idempotent apply counted: %d", k.Transitions())
	}
	if err := k.Apply(0, server.Config{Cores: 99, Freq: 1200}); err == nil {
		t.Error("invalid config should be rejected")
	}
	if k.Current(0) != server.MaxSprint() || k.Transitions() != 1 {
		t.Errorf("rejected config moved the knob: %v, %d transitions", k.Current(0), k.Transitions())
	}
}

// TestFleet pins the herd-wide apply: ApplyAll reaches every server of
// every class, Current and Configs agree, and a rejected config leaves
// the whole herd where it was.
func TestFleet(t *testing.T) {
	f := NewClassFleet([]int{1, 2}, func(i int) int { return min(i, 1) })
	if f.Size() != 3 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.ApplyAll(server.MaxSprint()); err != nil {
		t.Fatal(err)
	}
	for i, c := range f.Configs() {
		if c != server.MaxSprint() {
			t.Errorf("server %d = %v", i, c)
		}
		if f.Current(i) != c {
			t.Errorf("Current(%d) = %v, Configs says %v", i, f.Current(i), c)
		}
	}
	if err := f.ApplyAll(server.Config{Cores: 99, Freq: 1200}); err == nil {
		t.Error("invalid config should be rejected")
	}
	if err := f.ApplyAlive(server.Config{Cores: 99, Freq: 1200}, nil); err == nil {
		t.Error("invalid config should be rejected by ApplyAlive")
	}
	for i, c := range f.Configs() {
		if c != server.MaxSprint() {
			t.Errorf("rejected config moved server %d to %v", i, c)
		}
	}
	if f.Transitions() != 3 {
		t.Errorf("transitions = %d, want one per server", f.Transitions())
	}
}

// TestClassFleet pins the herd's per-server accounting: applies are
// counted per distinct change and herd size, invalid configs are
// rejected, a detached server leaves with its share of the herd's
// count, ApplyAlive skips down servers, and a flat per-knob snapshot
// of the fleet restores to the identical herd.
func TestClassFleet(t *testing.T) {
	f := NewClassFleet([]int{2, 2}, func(i int) int { return i / 2 })
	if f.Size() != 4 {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.ApplyAll(server.MaxSprint()); err != nil {
		t.Fatal(err)
	}
	// Re-applying the same config is not a transition.
	f.ApplyAll(server.MaxSprint())
	if f.Transitions() != 4 {
		t.Errorf("transitions = %d, want one per server", f.Transitions())
	}
	if err := f.ApplyAll(server.Config{Cores: 99, Freq: 1200}); err == nil {
		t.Error("invalid config should be rejected")
	}
	for i, c := range f.Configs() {
		if c != server.MaxSprint() {
			t.Errorf("server %d = %v", i, c)
		}
	}

	// Server 1 crashes: detached with its one transition, plus the
	// crash's own.
	if err := f.Apply(1, server.Normal()); err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(9, server.Normal()); err == nil {
		t.Error("out-of-range server should be rejected")
	}
	down := func(i int) bool { return i == 1 }
	if err := f.ApplyAlive(server.Normal(), down); err != nil {
		t.Fatal(err)
	}
	if f.Current(1) != server.Normal() || f.Current(0) != server.Normal() || f.Detached() != 1 {
		t.Errorf("after crash: configs %v, detached %d", f.Configs(), f.Detached())
	}
	f.ApplyAlive(server.MaxSprint(), down)
	if f.Current(1) != server.Normal() || f.Current(3) != server.MaxSprint() {
		t.Errorf("ApplyAlive touched the down server: %v", f.Configs())
	}
	s := f.Snapshot()
	want := []ClassKnobSnapshot{{Count: 1, Config: server.MaxSprint(), Transitions: 3}, {Count: 2, Config: server.MaxSprint(), Transitions: 6}}
	for c := range want {
		if s.Classes[c] != want[c] {
			t.Errorf("class %d = %+v, want %+v", c, s.Classes[c], want[c])
		}
	}
	if len(s.Detached) != 1 || s.Detached[0].Transitions != 2 {
		t.Errorf("detached = %+v, want server 1 with 2 transitions", s.Detached)
	}

	// The same state as a flat per-knob snapshot restores to the
	// identical herd.
	flat := FleetSnapshot{Knobs: make([]KnobSnapshot, f.Size())}
	for i, c := range f.Configs() {
		flat.Knobs[i] = KnobSnapshot{Config: c, Transitions: 3}
	}
	flat.Knobs[1].Transitions = 2
	g := NewClassFleet([]int{2, 2}, func(i int) int { return i / 2 })
	if err := g.RestoreFlat(flat, down); err != nil {
		t.Fatal(err)
	}
	if got := g.Snapshot(); fmt.Sprint(got) != fmt.Sprint(s) {
		t.Errorf("flat restore = %+v, want %+v", got, s)
	}
	flat.Knobs[2].Transitions = -1
	if err := g.RestoreFlat(flat, down); err == nil {
		t.Error("negative transition count accepted")
	}
	s.Classes[1].Count = 3
	if err := g.Restore(s); err == nil {
		t.Error("snapshot miscounting a class accepted")
	}
}
