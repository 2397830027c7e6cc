// Package predictor implements the Predictor component of the
// GreenSprint architecture (Figure 3): short-horizon forecasts of
// renewable-energy production and workload intensity. The paper uses
// an exponentially weighted moving average (Eq. 1):
//
//	RESupp(t) = α·RESupp(t−1) + (1−α)·Obs(t)
//
// with α = 0.3 chosen as the most consistent trade-off between
// stability and responsiveness. Evaluate scores a predictor's
// one-step-ahead error over a trace; experiments.EWMASweep runs it
// across α to regenerate that choice.
package predictor

import (
	"fmt"
	"math"

	"greensprint/internal/trace"
)

// DefaultAlpha is the paper's smoothing factor for renewable-supply
// prediction.
const DefaultAlpha = 0.3

// Predictor forecasts the next epoch's value of a scalar signal.
type Predictor interface {
	// Observe feeds the value measured during the epoch that just
	// ended.
	Observe(v float64)
	// Predict returns the forecast for the next epoch.
	Predict() float64
}

// EWMA is the paper's exponentially weighted moving-average predictor.
// The zero value is not usable; construct with NewEWMA.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA creates an EWMA predictor. It panics when alpha lies outside
// [0,1], which is always a programming error.
func NewEWMA(alpha float64) *EWMA {
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		panic(fmt.Sprintf("predictor: alpha %v outside [0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe implements Predictor. The first observation primes the
// average.
func (e *EWMA) Observe(v float64) {
	if !e.primed {
		e.value, e.primed = v, true
		return
	}
	e.value = e.alpha*e.value + (1-e.alpha)*v
}

// Predict implements Predictor. An unprimed predictor forecasts 0.
func (e *EWMA) Predict() float64 { return e.value }

// Primed reports whether at least one observation has been made.
func (e *EWMA) Primed() bool { return e.primed }

// EWMASnapshot is the serializable state of an EWMA predictor. Alpha
// is carried so a restore into a differently-configured predictor (a
// checkpoint from another knob setting) fails loudly instead of
// silently changing the forecast dynamics.
type EWMASnapshot struct {
	Alpha  float64 `json:"alpha"`
	Value  float64 `json:"value"`
	Primed bool    `json:"primed"`
}

// Snapshot captures the predictor's mutable state.
func (e *EWMA) Snapshot() EWMASnapshot {
	return EWMASnapshot{Alpha: e.alpha, Value: e.value, Primed: e.primed}
}

// Restore replaces the predictor's state with a snapshot taken from a
// predictor with the same smoothing factor.
func (e *EWMA) Restore(s EWMASnapshot) error {
	if s.Alpha != e.alpha {
		return fmt.Errorf("predictor: restore: snapshot alpha %v does not match predictor alpha %v", s.Alpha, e.alpha)
	}
	if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
		return fmt.Errorf("predictor: restore: non-finite value %v", s.Value)
	}
	e.value, e.primed = s.Value, s.Primed
	return nil
}

// Alpha returns the smoothing factor.
func (e *EWMA) Alpha() float64 { return e.alpha }

// Accuracy summarizes one-step-ahead prediction error over a signal.
type Accuracy struct {
	// MAPE is the mean absolute percentage error, computed only
	// over samples whose actual magnitude is at least 1% of the
	// signal's peak — percentage error against near-zero actuals
	// (solar dawn/dusk) is meaningless and would dominate the mean.
	MAPE float64
	// RMSE is the root mean squared error.
	RMSE float64
	// N is the number of evaluated predictions.
	N int
}

// Evaluate replays tr through p and scores the one-step-ahead
// forecasts. The first sample primes the predictor and is not scored.
func Evaluate(p Predictor, tr *trace.Trace) Accuracy {
	if tr.Len() < 2 {
		return Accuracy{}
	}
	floor := 0.01 * tr.Stats().Max
	p.Observe(tr.Samples[0])
	var sumAPE, sumSq float64
	nAPE, n := 0, 0
	for _, actual := range tr.Samples[1:] {
		pred := p.Predict()
		err := pred - actual
		sumSq += err * err
		if math.Abs(actual) > floor {
			sumAPE += math.Abs(err / actual)
			nAPE++
		}
		p.Observe(actual)
		n++
	}
	acc := Accuracy{N: n, RMSE: math.Sqrt(sumSq / float64(n))}
	if nAPE > 0 {
		acc.MAPE = sumAPE / float64(nAPE)
	}
	return acc
}
