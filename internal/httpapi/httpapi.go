// Package httpapi exposes the greensprintd controller over HTTP:
//
//	GET  /healthz  — liveness probe
//	GET  /status   — current controller snapshot (JSON)
//	GET  /history  — retained per-epoch decisions (JSON)
//	GET  /metrics  — Prometheus text-format metric catalog (enabled
//	                 with WithMetrics)
//	GET  /debug/pprof/* — runtime profiles (opt-in via WithPprof)
//	POST /step     — feed one epoch of telemetry and run the control
//	                 loop; body is exactly one core.Telemetry JSON
//	                 object of at most MaxStepBody bytes and the
//	                 response is the resulting Decision (200 also when
//	                 the event sink failed: the epoch was applied, and
//	                 the SinkErrorHeader names the lost observation).
//
// POST /step exists so external monitors (or the simulator) can drive
// the daemon; when greensprintd runs with its internal ticker the
// endpoint remains available for manual injection during debugging.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"greensprint/internal/core"
	"greensprint/internal/obs"
)

// MaxStepBody caps a POST /step body. A Telemetry object is five
// numbers, so the cap leaves ample room for formatting while bounding
// what a client can make the daemon buffer; larger bodies get 413.
const MaxStepBody = 64 << 10

// SinkErrorHeader carries the event-sink failure of a POST /step whose
// epoch was applied but not fully observed.
const SinkErrorHeader = "Greensprint-Sink-Error"

// Server wraps a controller with HTTP handlers.
type Server struct {
	ctrl      *core.Controller
	mux       *http.ServeMux
	collector *obs.Collector
	// qtableJSON is the buffered Q-table encoder (a seam for tests;
	// defaults to ctrl.QTableJSON).
	qtableJSON func() ([]byte, bool, error)
}

// Option customizes the API server.
type Option func(*Server)

// WithMetrics serves c's Prometheus catalog on GET /metrics.
func WithMetrics(c *obs.Collector) Option {
	return func(s *Server) { s.collector = c }
}

// WithPprof mounts net/http/pprof's profile handlers under
// /debug/pprof/. Opt-in: profiling endpoints expose goroutine stacks
// and should not be reachable on an unprotected production port by
// default.
func WithPprof() Option {
	return func(s *Server) {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// New creates the API server for a controller.
func New(ctrl *core.Controller, opts ...Option) *Server {
	s := &Server{ctrl: ctrl, mux: http.NewServeMux(), qtableJSON: ctrl.QTableJSON}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/history", s.handleHistory)
	s.mux.HandleFunc("/step", s.handleStep)
	s.mux.HandleFunc("/qtable", s.handleQTable)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	for _, o := range opts {
		o(s)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	writeJSON(w, http.StatusOK, s.ctrl.Snapshot())
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	writeJSON(w, http.StatusOK, s.ctrl.History())
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w)
		return
	}
	var tel core.Telemetry
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxStepBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&tel)
	if err == nil {
		// Exactly one object: anything but whitespace after it is a
		// malformed request, not telemetry to act on.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the telemetry object")
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	d, err := s.ctrl.Step(tel)
	if err != nil {
		var se *core.SinkError
		if !errors.As(err, &se) {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		// The epoch was applied and recorded; only its observation was
		// lost. A 5xx would invite a retry that steps twice.
		w.Header().Set(SinkErrorHeader, se.Err.Error())
	}
	writeJSON(w, http.StatusOK, d)
}

// handleQTable serves the Hybrid strategy's learned Q-table (rl's
// indented persisted format, through Controller.QTableJSON); 404 for
// other strategies.
// The table is encoded into a buffer before any byte reaches the wire,
// so an encoding failure yields a clean 500 instead of truncated JSON
// with status 200.
func (s *Server) handleQTable(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	b, ok, err := s.qtableJSON()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "strategy " + s.ctrl.Strategy() + " has no Q-table",
		})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// handleMetrics renders the Prometheus text-format catalog; 404 when
// the daemon was started without a metrics collector.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w)
		return
	}
	if s.collector == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "metrics not enabled"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Render errors after the header is written can only be connection
	// failures, as with writeJSON.
	_ = s.collector.WritePrometheus(w)
}

func methodNotAllowed(w http.ResponseWriter) {
	writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding errors after the header is written can only be
	// connection failures; nothing useful remains to be done.
	_ = enc.Encode(v)
}
