package predictor

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"greensprint/internal/solar"
	"greensprint/internal/trace"
)

func TestNewEWMAPanics(t *testing.T) {
	for _, a := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v should panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestEWMAPriming(t *testing.T) {
	e := NewEWMA(DefaultAlpha)
	if e.Primed() {
		t.Error("fresh predictor should be unprimed")
	}
	if e.Predict() != 0 {
		t.Error("unprimed forecast should be 0")
	}
	e.Observe(100)
	if !e.Primed() || e.Predict() != 100 {
		t.Errorf("first observation should prime: %v", e.Predict())
	}
	if e.Alpha() != DefaultAlpha {
		t.Errorf("alpha = %v", e.Alpha())
	}
}

func TestEWMAEquation(t *testing.T) {
	// Verify Eq. 1 literally: pred = 0.3*prev + 0.7*obs.
	e := NewEWMA(0.3)
	e.Observe(100)
	e.Observe(200)
	want := 0.3*100 + 0.7*200
	if got := e.Predict(); math.Abs(got-want) > 1e-12 {
		t.Errorf("pred = %v, want %v", got, want)
	}
	e.Observe(50)
	want = 0.3*want + 0.7*50
	if got := e.Predict(); math.Abs(got-want) > 1e-12 {
		t.Errorf("pred = %v, want %v", got, want)
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 50; i++ {
		e.Observe(42)
	}
	if got := e.Predict(); math.Abs(got-42) > 1e-9 {
		t.Errorf("constant input should converge: %v", got)
	}
}

func TestEvaluatePerfectSignal(t *testing.T) {
	// A constant signal is perfectly predictable.
	tr := trace.New("c", time.Now(), time.Minute, []float64{5, 5, 5, 5, 5})
	acc := Evaluate(NewEWMA(0.3), tr)
	if acc.N != 4 {
		t.Errorf("N = %d", acc.N)
	}
	if acc.MAPE != 0 || acc.RMSE != 0 {
		t.Errorf("constant signal should have zero error: %+v", acc)
	}
}

func TestEvaluateShortTrace(t *testing.T) {
	tr := trace.New("s", time.Now(), time.Minute, []float64{1})
	if acc := Evaluate(NewEWMA(0.3), tr); acc.N != 0 {
		t.Errorf("short trace N = %d", acc.N)
	}
}

func TestEvaluateZeroActuals(t *testing.T) {
	tr := trace.New("z", time.Now(), time.Minute, []float64{0, 0, 0})
	acc := Evaluate(NewEWMA(0.3), tr)
	if acc.MAPE != 0 {
		t.Errorf("MAPE with zero actuals = %v", acc.MAPE)
	}
	if acc.N != 2 {
		t.Errorf("N = %d", acc.N)
	}
}

func TestEWMABeatsNothingOnSolar(t *testing.T) {
	// On a stable (clear-sky) solar day the paper notes prediction
	// is accurate; verify the EWMA tracks a generated clear day with
	// low relative RMSE against the daytime mean.
	cfg := solar.DefaultGeneratorConfig()
	cfg.Days = 1
	cfg.Skies = []solar.Sky{solar.Clear}
	tr, err := solar.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day, err := tr.Slice(cfg.Start.Add(8*time.Hour), cfg.Start.Add(16*time.Hour)).Resample(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(NewEWMA(DefaultAlpha), day)
	if mean := day.Mean(); acc.RMSE/mean > 0.10 {
		t.Errorf("clear-day RMSE/mean = %v, want < 0.10", acc.RMSE/mean)
	}
}

// TestSweepAlpha evaluates EWMA predictors across α on a generated
// two-day solar trace.
func TestSweepAlpha(t *testing.T) {
	cfg := solar.DefaultGeneratorConfig()
	cfg.Days = 2
	tr, err := solar.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := tr.Resample(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	res := map[float64]Accuracy{}
	for _, a := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		res[a] = Evaluate(NewEWMA(a), epochs)
		if res[a].N == 0 {
			t.Errorf("alpha %v evaluated no samples", a)
		}
	}
	// Heavier weighting toward the current observation (small alpha)
	// must beat near-frozen predictors (alpha 0.9) on a diurnal ramp
	// — the paper's rationale for α = 0.3.
	if res[0.3].RMSE >= res[0.9].RMSE {
		t.Errorf("alpha 0.3 RMSE %v should beat alpha 0.9 RMSE %v", res[0.3].RMSE, res[0.9].RMSE)
	}
}

// Property: the EWMA forecast always lies within the range of observed
// values.
func TestEWMARangeProperty(t *testing.T) {
	f := func(vals []float64, alphaRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		e := NewEWMA(float64(alphaRaw) / 255)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 1e6)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			e.Observe(v)
			if p := e.Predict(); p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
