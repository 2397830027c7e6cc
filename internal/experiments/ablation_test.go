package experiments

import (
	"testing"
	"time"

	"greensprint/internal/pss"
)

func TestEWMASweep(t *testing.T) {
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	pts, err := EWMASweep(alphas)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(alphas) {
		t.Fatalf("points = %d", len(pts))
	}
	byAlpha := map[float64]AlphaPoint{}
	for _, p := range pts {
		if p.RMSE <= 0 {
			t.Errorf("alpha %v RMSE = %v", p.Alpha, p.RMSE)
		}
		byAlpha[p.Alpha] = p
	}
	// The paper's choice (0.3) must beat the sluggish extreme (0.9)
	// and be within 25% of the best tested alpha.
	if byAlpha[0.3].RMSE >= byAlpha[0.9].RMSE {
		t.Errorf("alpha 0.3 (%v) should beat 0.9 (%v)", byAlpha[0.3].RMSE, byAlpha[0.9].RMSE)
	}
	best := pts[0].RMSE
	for _, p := range pts {
		if p.RMSE < best {
			best = p.RMSE
		}
	}
	if byAlpha[0.3].RMSE > best*1.25 {
		t.Errorf("alpha 0.3 RMSE %v too far from best %v", byAlpha[0.3].RMSE, best)
	}
}

func TestQuantizationSweep(t *testing.T) {
	pts, err := QuantizationSweep([]float64{0.025, 0.05, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Finer steps mean more levels.
	if !(pts[0].Levels > pts[1].Levels && pts[1].Levels > pts[2].Levels) {
		t.Errorf("levels not decreasing: %+v", pts)
	}
	// Performance should be insensitive to the step (the paper's
	// rationale for 5%): all within 10% of each other.
	for _, p := range pts {
		if p.Perf < pts[1].Perf*0.9 || p.Perf > pts[1].Perf*1.1 {
			t.Errorf("step %v perf %v diverges from 5%% step %v", p.Step, p.Perf, pts[1].Perf)
		}
	}
}

func TestRewardAblation(t *testing.T) {
	shaped, literal, naive, err := RewardAblation()
	if err != nil {
		t.Fatal(err)
	}
	if shaped < 2.5 {
		t.Errorf("shaped Med/60m perf = %v, want ~3.2", shaped)
	}
	// The expected-goodput safeguard rescues a misspecified reward.
	if literal < shaped*0.9 {
		t.Errorf("safeguarded literal %v should track shaped %v", literal, shaped)
	}
	// Without the safeguard, the literal Algorithm 1 reward teaches
	// the policy to avoid delivered QoS: it loses a clear margin to
	// the shipped Hybrid (it only sprints while supply is abundant
	// enough for the met-QoS branch).
	if naive > shaped-0.4 {
		t.Errorf("naive literal %v should trail shaped %v by a clear margin", naive, shaped)
	}
}

func TestDoDSweep(t *testing.T) {
	pts, err := DoDSweep([]float64{0.2, 0.4, 0.6, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// Deeper discharge never hurts performance and strictly helps
	// somewhere.
	for i := 1; i < len(pts); i++ {
		if pts[i].Perf < pts[i-1].Perf-1e-9 {
			t.Errorf("perf decreasing with DoD: %+v", pts)
		}
	}
	if pts[len(pts)-1].Perf <= pts[0].Perf {
		t.Error("deep discharge should buy performance at Min availability")
	}
	// ...but costs cycle life.
	for i := 1; i < len(pts); i++ {
		if pts[i].LifetimeCycles >= pts[i-1].LifetimeCycles {
			t.Errorf("lifetime not decreasing with DoD: %+v", pts)
		}
	}
	// Anchor: 40% DoD → 1300 cycles.
	if pts[1].LifetimeCycles != 1300 {
		t.Errorf("40%% DoD lifetime = %v", pts[1].LifetimeCycles)
	}
}

func TestSourceComparison(t *testing.T) {
	solarPerf, windPerf, err := SourceComparison(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if solarPerf <= 1 || windPerf <= 1 {
		t.Errorf("both sources should enable sprinting: solar %v wind %v", solarPerf, windPerf)
	}
	// At matched mean supply the burstier wind source should not
	// outperform solar by more than noise (usually it is worse).
	if windPerf > solarPerf*1.1 {
		t.Errorf("wind %v should not beat solar %v at matched mean", windPerf, solarPerf)
	}
}

func TestIntegrationComparison(t *testing.T) {
	dist, cent, err := IntegrationComparison()
	if err != nil {
		t.Fatal(err)
	}
	// §II: distributed integration enables serious sprinting on the
	// green servers; centralized spreads the supply too thin.
	if dist < 4 {
		t.Errorf("distributed perf = %v, want near max sprint", dist)
	}
	if cent >= dist {
		t.Errorf("centralized %v should trail distributed %v", cent, dist)
	}
}

func TestInjectCloudTransient(t *testing.T) {
	res, err := InjectFailure(CloudTransient)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.BurstRecords()
	if len(recs) != 6 {
		t.Fatalf("epochs = %d", len(recs))
	}
	// The controller must keep serving throughout (>= Normal): the
	// transient degrades performance but never drops service.
	for i, rec := range recs {
		if rec.NormPerf < 0.99 {
			t.Errorf("epoch %d perf = %v, below Normal", i, rec.NormPerf)
		}
	}
	// Before the transient the burst sprints.
	if !recs[0].Config.IsSprinting() {
		t.Errorf("no sprint before transient: %+v", recs[0])
	}
	// During the outage the batteries bridge first (sprint continues
	// on battery power), then the rack falls back to the grid
	// instead of failing.
	sawBattery, sawFallback := false, false
	for _, rec := range recs[1:] {
		if rec.Case == pss.CaseBatteryOnly {
			sawBattery = true
		}
		if rec.Case == pss.CaseGridFallback {
			sawFallback = true
		}
	}
	if !sawBattery {
		t.Error("expected battery bridging during the supply outage")
	}
	if !sawFallback {
		t.Error("expected a grid fallback once the batteries drained")
	}
	// After the supply returns, whatever green power exists is used
	// again (offsetting grid draw even when it cannot fund a sprint).
	if last := recs[len(recs)-1]; last.Green <= 0 {
		t.Errorf("green power unused after recovery: %+v", last)
	}
}

func TestInjectBatteryDead(t *testing.T) {
	res, err := InjectFailure(BatteryDead)
	if err != nil {
		t.Fatal(err)
	}
	// Without batteries, Med availability still allows partial
	// sprinting from green alone, and every shortfall epoch falls
	// back to the grid rather than failing.
	for _, rec := range res.BurstRecords() {
		if rec.Battery != 0 {
			t.Errorf("battery power with dead batteries: %+v", rec)
		}
		if rec.Case == pss.CaseGreenPlusBattery || rec.Case == pss.CaseBatteryOnly {
			t.Errorf("battery case with dead batteries: %v", rec.Case)
		}
	}
	if res.MeanNormPerf < 1 {
		t.Errorf("perf = %v", res.MeanNormPerf)
	}
}

func TestFailureKindString(t *testing.T) {
	if CloudTransient.String() != "cloud-transient" || BatteryDead.String() != "battery-dead" {
		t.Error("names")
	}
	if FailureKind(9).String() != "FailureKind(9)" {
		t.Error("unknown formatting")
	}
}

func TestOverdrawComparison(t *testing.T) {
	plain, overdraw, err := OverdrawComparison()
	if err != nil {
		t.Fatal(err)
	}
	if overdraw <= plain {
		t.Errorf("overdraw %v should beat plain %v on the dip scenario", overdraw, plain)
	}
	if plain < 1 || overdraw > 5 {
		t.Errorf("values out of range: %v %v", plain, overdraw)
	}
}

func TestCalibrationSensitivity(t *testing.T) {
	pts, err := CalibrationSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	var base float64
	for _, p := range pts {
		if p.Knob == "baseline" {
			base = p.Gain
		}
	}
	if base < 4.5 || base > 5.1 {
		t.Fatalf("baseline gain = %v", base)
	}
	for _, p := range pts {
		// ±20% knob perturbations move the headline gain, but it
		// stays within ±15% of the calibrated value — the shapes do
		// not hinge on a knife-edge fit.
		if rel := (p.Gain - base) / base; rel > 0.15 || rel < -0.15 {
			t.Errorf("%s %+.0f%%: gain %v drifts %.0f%% from baseline %v",
				p.Knob, p.Delta*100, p.Gain, rel*100, base)
		}
		// Directionality: a higher oversubscription penalty widens
		// the gain (Normal suffers more), a higher frequency
		// exponent widens it too (Normal's slow clock hurts more).
		if p.Delta > 0 && p.Gain < base {
			t.Errorf("%s +20%% should not shrink the gain: %v < %v", p.Knob, p.Gain, base)
		}
		if p.Delta < 0 && p.Gain > base {
			t.Errorf("%s -20%% should not widen the gain: %v > %v", p.Knob, p.Gain, base)
		}
	}
}
