package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"greensprint/internal/core"
	"greensprint/internal/httpapi"
	"greensprint/internal/pmk"
	"greensprint/internal/server"
)

// assertHost checks the sysfs tree under root holds setting c: the
// first c.Cores CPUs online and capped at c.Freq, the rest offline.
func assertHost(t *testing.T, root string, c server.Config) {
	t.Helper()
	read := func(parts ...string) string {
		b, err := os.ReadFile(filepath.Join(append([]string{root}, parts...)...))
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(b))
	}
	for cpu := 0; cpu < server.MaxCores; cpu++ {
		dir := "cpu" + strconv.Itoa(cpu)
		online := cpu < c.Cores
		if cpu > 0 {
			want := "0"
			if online {
				want = "1"
			}
			if got := read(dir, "online"); got != want {
				t.Errorf("%s/online = %q, want %q for %v", dir, got, want, c)
			}
		}
		if online {
			if got, want := read(dir, "cpufreq", "scaling_max_freq"), strconv.Itoa(int(c.Freq)*1000); got != want {
				t.Errorf("%s scaling_max_freq = %q, want %q for %v", dir, got, want, c)
			}
		}
	}
}

// TestSysfsBackendActuatesHost builds the daemon's controller with
// -backend sysfs against a temp sysfs tree: one abundant-green /step
// must write the decision to the host's CPU files, and a controller
// resumed from the checkpoint must drive the host back to the
// checkpointed setting.
func TestSysfsBackendActuatesHost(t *testing.T) {
	root := t.TempDir()
	for cpu := 0; cpu < server.MaxCores; cpu++ {
		if err := os.MkdirAll(filepath.Join(root, "cpu"+strconv.Itoa(cpu), "cpufreq"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	cfg := demoConfig()
	o := options{backend: "sysfs", sysfsRoot: root, ckpt: filepath.Join(t.TempDir(), "ck.json")}
	dm, err := build(cfg, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := dm.ctrl
	if dm.ticker {
		t.Fatal("sysfs backend runs the internal ticker")
	}

	p, err := cfg.WorkloadProfile()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(core.Telemetry{
		GreenPower:  5000,
		OfferedRate: p.IntensityRate(cfg.BurstIntensity),
		Goodput:     p.MaxGoodput(server.Normal()),
		Latency:     0.45,
		ServerPower: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	httpapi.New(ctrl).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/step", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /step: %d %s", rec.Code, rec.Body.String())
	}
	var d core.Decision
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if !d.Config.IsSprinting() {
		t.Fatalf("abundant green decided %v, want a sprint", d.Config)
	}
	assertHost(t, root, d.Config)

	if _, err := saveCheckpoint(ctrl, o.ckpt); err != nil {
		t.Fatal(err)
	}
	// Something else moves the host; resuming must move it back.
	if err := pmk.NewSysfs(root).Apply(server.Normal()); err != nil {
		t.Fatal(err)
	}
	assertHost(t, root, server.Normal())
	o.resume = true
	resumed, err := build(cfg, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.ctrl.Snapshot().Epoch; got != 1 {
		t.Fatalf("resumed at epoch %d, want 1", got)
	}
	assertHost(t, root, d.Config)
}
