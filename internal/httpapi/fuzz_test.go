package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"greensprint/internal/cluster"
	"greensprint/internal/core"
	"greensprint/internal/obs"
	"greensprint/internal/workload"
)

// countingReader counts the bytes a handler reads from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// spaces yields n ASCII spaces without holding them in memory.
type spaces int64

func (s *spaces) Read(p []byte) (int, error) {
	if *s <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > int64(*s) {
		p = p[:*s]
	}
	for i := range p {
		p[i] = ' '
	}
	*s -= spaces(len(p))
	return len(p), nil
}

// FuzzAPI drives the whole API — every route, any method, path, query
// and body — and holds the handler to three rules: no input panics it,
// a 4xx response leaves the controller's epoch count where it was, and
// no request makes it read more than MaxStepBody bytes of a body. Pad
// appends that many spaces to the body (modulo twice the cap), so the
// fuzzer reaches bodies past the cap without generating them byte by
// byte. http.MaxBytesReader reads one byte past its limit to detect an
// overflow, so the read bound is MaxStepBody+1.
func FuzzAPI(f *testing.F) {
	valid := []byte(`{"GreenPower":635,"OfferedRate":1400,"Goodput":120,"Latency":0.6,"ServerPower":100}`)
	f.Add(http.MethodPost, "step", "", valid, uint32(0))
	f.Add(http.MethodPost, "step", "", valid, uint32(MaxStepBody))
	f.Add(http.MethodPost, "step", "x=1", []byte(`{"GreenPower":-1e999}`), uint32(0))
	f.Add(http.MethodPost, "step", "", []byte(`{"Bogus":1}`), uint32(0))
	f.Add(http.MethodPost, "step", "", append(append([]byte{}, valid...), valid...), uint32(0))
	f.Add(http.MethodGet, "step", "", []byte(nil), uint32(0))
	f.Add(http.MethodGet, "status", "", []byte(nil), uint32(0))
	f.Add(http.MethodGet, "history", "limit=5", []byte(nil), uint32(0))
	f.Add(http.MethodGet, "metrics", "", []byte(nil), uint32(0))
	f.Add(http.MethodGet, "qtable", "", []byte(nil), uint32(0))
	f.Add(http.MethodDelete, "healthz", "", []byte("{}"), uint32(0))
	f.Add("BREW", "../step", "%zz", []byte("{"), uint32(7))

	collector := obs.NewCollector()
	ctrl, err := core.New(core.Options{
		Workload:     workload.SPECjbb(),
		Green:        cluster.REBatt(),
		StrategyName: "Hybrid",
		Sink:         collector,
	})
	if err != nil {
		f.Fatal(err)
	}
	api := New(ctrl, WithMetrics(collector))

	f.Fuzz(func(t *testing.T, method, path, query string, body []byte, pad uint32) {
		pads := spaces(int64(pad) % (2 * MaxStepBody))
		rd := &countingReader{r: io.MultiReader(bytes.NewReader(body), &pads)}
		req := httptest.NewRequest(http.MethodGet, "/", rd)
		req.Method = method
		req.URL.Path = "/" + path
		req.URL.RawQuery = query
		before := ctrl.Snapshot().Epoch
		w := httptest.NewRecorder()
		api.ServeHTTP(w, req)
		after := ctrl.Snapshot().Epoch
		if w.Code >= 400 && w.Code < 500 && after != before {
			t.Errorf("%s /%s answered %d but stepped the controller %d → %d", method, path, w.Code, before, after)
		}
		if rd.n > MaxStepBody+1 {
			t.Errorf("%s /%s read %d body bytes, cap %d", method, path, rd.n, MaxStepBody)
		}
	})
}
