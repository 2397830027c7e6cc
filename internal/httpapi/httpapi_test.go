package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"greensprint/internal/cluster"
	"greensprint/internal/core"
	"greensprint/internal/obs"
	"greensprint/internal/workload"
)

func newServer(t *testing.T) (*Server, *core.Controller) {
	t.Helper()
	ctrl, err := core.New(core.Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(ctrl), ctrl
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s, _ := newServer(t)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestStatus(t *testing.T) {
	s, _ := newServer(t)
	rec := get(t, s, "/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status code = %d", rec.Code)
	}
	var st core.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Workload != "SPECjbb" || st.Strategy != "Hybrid" {
		t.Errorf("status = %+v", st)
	}
}

func TestStepAndHistory(t *testing.T) {
	s, _ := newServer(t)
	body := `{"GreenPower":635,"OfferedRate":1400,"Goodput":120,"Latency":0.4,"ServerPower":100}`
	req := httptest.NewRequest(http.MethodPost, "/step", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("step code = %d: %s", rec.Code, rec.Body.String())
	}
	var d core.Decision
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Epoch != 0 {
		t.Errorf("decision = %+v", d)
	}
	// History now has one entry.
	hrec := get(t, s, "/history")
	var hist []core.Decision
	if err := json.Unmarshal(hrec.Body.Bytes(), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Errorf("history = %d", len(hist))
	}
}

// failSink fails every emission.
type failSink struct{}

func (failSink) Emit(obs.Event) error { return errors.New("disk full") }

// TestStepSinkErrorIsOK pins /step's answer to a sink failure: the
// epoch was applied and recorded, so the response is 200 with the
// decision, the lost observation rides SinkErrorHeader, and the
// controller has stepped exactly once — a client that retried a 500
// would step it twice.
func TestStepSinkErrorIsOK(t *testing.T) {
	ctrl, err := core.New(core.Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
		Sink:         failSink{},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"GreenPower":635,"OfferedRate":1400,"Goodput":120,"Latency":0.4,"ServerPower":100}`
	rec := httptest.NewRecorder()
	New(ctrl).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/step", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("step with failing sink: code = %d: %s", rec.Code, rec.Body.String())
	}
	var d core.Decision
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("body is not a decision: %v: %s", err, rec.Body.String())
	}
	if d.Epoch != 0 || !d.Config.Valid() || d != ctrl.Snapshot().Last {
		t.Errorf("decision = %+v, want the applied epoch-0 decision %+v", d, ctrl.Snapshot().Last)
	}
	if got := ctrl.Snapshot().Epoch; got != 1 {
		t.Errorf("controller epoch = %d, want 1", got)
	}
	if h := rec.Header().Get(SinkErrorHeader); h != "disk full" {
		t.Errorf("%s = %q, want the sink's error", SinkErrorHeader, h)
	}
}

// TestStepBadBody feeds /step malformed, trailing-data and oversized
// bodies: each is rejected with its status code and none steps the
// controller.
func TestStepBadBody(t *testing.T) {
	s, ctrl := newServer(t)
	const valid = `{"GreenPower":1}`
	huge := `{"GreenPower":1,"Nope":"` + strings.Repeat("x", MaxStepBody) + `"}`
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"broken JSON", `{bad`, http.StatusBadRequest},
		{"unknown field", `{"Nope":1}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"trailing junk", valid + ` junk`, http.StatusBadRequest},
		{"second object", valid + valid, http.StatusBadRequest},
		{"oversized token", huge, http.StatusRequestEntityTooLarge},
		{"oversized trailing space", valid + strings.Repeat(" ", MaxStepBody), http.StatusRequestEntityTooLarge},
	} {
		req := httptest.NewRequest(http.MethodPost, "/step", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.code {
			t.Errorf("%s: code = %d, want %d: %s", tc.name, rec.Code, tc.code, rec.Body.String())
		}
		if n := ctrl.Snapshot().Epoch; n != 0 {
			t.Fatalf("%s: controller stepped to epoch %d", tc.name, n)
		}
	}
	// Trailing whitespace is fine.
	req := httptest.NewRequest(http.MethodPost, "/step", strings.NewReader(valid+" \n"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || ctrl.Snapshot().Epoch != 1 {
		t.Errorf("valid body with trailing newline: code %d, epoch %d", rec.Code, ctrl.Snapshot().Epoch)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newServer(t)
	cases := []struct{ method, path string }{
		{http.MethodPost, "/status"},
		{http.MethodPost, "/history"},
		{http.MethodGet, "/step"},
		{http.MethodPost, "/healthz"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: code = %d", c.method, c.path, rec.Code)
		}
	}
}

func TestNotFound(t *testing.T) {
	s, _ := newServer(t)
	rec := get(t, s, "/nope")
	if rec.Code != http.StatusNotFound {
		t.Errorf("code = %d", rec.Code)
	}
}

func TestQTableEndpoint(t *testing.T) {
	s, _ := newServer(t) // Hybrid controller
	rec := get(t, s, "/qtable")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	var tab struct {
		Actions int `json:"actions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tab); err != nil {
		t.Fatal(err)
	}
	if tab.Actions != 63 {
		t.Errorf("actions = %d", tab.Actions)
	}
	// Non-Hybrid strategies have no table.
	ctrl, err := core.New(core.Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = get(t, New(ctrl), "/qtable")
	if rec.Code != http.StatusNotFound {
		t.Errorf("greedy qtable code = %d", rec.Code)
	}
	// Method check.
	req := httptest.NewRequest(http.MethodPost, "/qtable", strings.NewReader("{}"))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST code = %d", w.Code)
	}
}

// stepOnce feeds one epoch of telemetry through the API.
func stepOnce(t *testing.T, s *Server) {
	t.Helper()
	body := `{"GreenPower":635,"OfferedRate":1400,"Goodput":120,"Latency":0.6,"ServerPower":100}`
	req := httptest.NewRequest(http.MethodPost, "/step", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("step code = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	collector := obs.NewCollector()
	ctrl, err := core.New(core.Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
		Sink:         collector,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ctrl, WithMetrics(collector))
	stepOnce(t, s)
	stepOnce(t, s)

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"greensprint_epochs_total 2",
		`greensprint_decisions_total{config=`,
		"greensprint_battery_soc ",
		"greensprint_epoch_latency_seconds_count 2",
		"greensprint_supply_case_total{case=",
		// SPECjbb's deadline is 0.5 s and the injected latency 0.6 s.
		"greensprint_qos_violations_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every sample line must parse as `name{labels} value`.
	for i, ln := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(ln, "#") || ln == "" {
			continue
		}
		sp := strings.LastIndex(ln, " ")
		if sp <= 0 {
			t.Fatalf("line %d: no value separator: %q", i, ln)
		}
		if v := ln[sp+1:]; v != "+Inf" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Errorf("line %d: unparseable value %q", i, v)
			}
		}
	}
}

func TestMetricsDisabled(t *testing.T) {
	s, _ := newServer(t)
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusNotFound {
		t.Errorf("metrics without collector: code = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics code = %d", rec.Code)
	}
}

// TestQTableBuffered is the regression test for the truncated-stream
// bug: the handler must buffer the whole encode, set Content-Length,
// and turn an encoding failure into a 500 — never a 200 with a
// truncated body.
func TestQTableBuffered(t *testing.T) {
	s, _ := newServer(t)
	rec := get(t, s, "/qtable")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Error("qtable response is not complete JSON")
	}

	s.qtableJSON = func() ([]byte, bool, error) {
		return nil, true, errors.New("encode exploded")
	}
	rec = get(t, s, "/qtable")
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("failing encode: code = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "encode exploded") {
		t.Errorf("error body = %q", rec.Body.String())
	}
}

func TestPprofOptIn(t *testing.T) {
	s, _ := newServer(t)
	if rec := get(t, s, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in: code = %d", rec.Code)
	}
	ctrl, err := core.New(core.Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
	})
	if err != nil {
		t.Fatal(err)
	}
	s = New(ctrl, WithPprof())
	if rec := get(t, s, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof index code = %d", rec.Code)
	}
}
