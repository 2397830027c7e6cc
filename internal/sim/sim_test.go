package sim

import (
	"context"
	"testing"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/profile"
	"greensprint/internal/pss"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

var (
	testProfile = workload.SPECjbb()
	testTable   *profile.Table
)

func init() {
	var err error
	testTable, err = profile.Build(testProfile, profile.DefaultLevels)
	if err != nil {
		panic(err)
	}
}

// runCase simulates one (availability, duration, strategy, green
// config) cell the way the experiment harness does.
func runCase(t *testing.T, level solar.Availability, d time.Duration, strat strategy.Strategy, green cluster.GreenConfig) *Result {
	t.Helper()
	supply := solar.Synthesize(level, d, time.Minute, float64(green.PeakGreen()), 42)
	res, err := Run(context.Background(), Config{
		Workload: testProfile,
		Green:    green,
		Strategy: strat,
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hybrid(t *testing.T) strategy.Strategy {
	t.Helper()
	h, err := strategy.NewHybrid(testProfile, testTable)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestValidate(t *testing.T) {
	good := Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Strategy: strategy.Greedy{},
		Burst:    workload.Burst{Intensity: 12, Duration: 10 * time.Minute},
		Supply:   solar.Synthesize(solar.Max, 10*time.Minute, time.Minute, 635.25, 1),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config invalid: %v", err)
	}
	bad := good
	bad.Strategy = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil strategy should fail")
	}
	bad = good
	bad.Supply = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil supply should fail")
	}
	bad = good
	bad.Burst.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero burst should fail")
	}
	bad = good
	bad.Workload = workload.Profile{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid workload should fail")
	}
	bad = good
	bad.Epoch = -time.Minute
	if err := bad.Validate(); err == nil {
		t.Error("negative epoch should fail")
	}
	// Run rejects a no-green-server config.
	noGreen := good
	noGreen.Green = cluster.GreenConfig{Name: "none"}
	if _, err := Run(context.Background(), noGreen); err == nil {
		t.Error("no green servers should fail at Run")
	}
}

func TestMaxAvailabilityFullSprint(t *testing.T) {
	// Figure 6: with maximum renewable availability, performance is
	// always the best, ~4.8x over Normal, for any duration.
	for _, d := range []time.Duration{10 * time.Minute, 60 * time.Minute} {
		res := runCase(t, solar.Max, d, hybrid(t), cluster.REBatt())
		if res.MeanNormPerf < 4.5 {
			t.Errorf("Max availability %v: perf = %.2f, want ~4.8", d, res.MeanNormPerf)
		}
		// Sprinting should be powered by green energy, not grid.
		for _, rec := range res.BurstRecords() {
			if rec.Case == pss.CaseGridFallback {
				t.Errorf("grid fallback at max availability: %+v", rec)
			}
		}
	}
}

func TestMinAvailabilityShortBurstBatteryCarries(t *testing.T) {
	// §IV-A: "For short bursts (10-minute), even when the renewable
	// energy is unavailable, battery alone is able to completely
	// handle the sprinting operation with maximal performance."
	res := runCase(t, solar.Min, 10*time.Minute, hybrid(t), cluster.REBatt())
	if res.MeanNormPerf < 4.3 {
		t.Errorf("Min/10min RE-Batt perf = %.2f, want near max", res.MeanNormPerf)
	}
	for _, rec := range res.BurstRecords() {
		if rec.Case != pss.CaseBatteryOnly {
			t.Errorf("expected battery-only epochs, got %v", rec.Case)
		}
	}
}

func TestMinAvailabilityLongBurstDegrades(t *testing.T) {
	// §IV-A: for 60-minute bursts at minimum availability the gain
	// collapses (1.8x for Parallel); battery-based sprinting is
	// unsatisfactory.
	res := runCase(t, solar.Min, 60*time.Minute, strategy.Parallel{}, cluster.REBatt())
	if res.MeanNormPerf < 1.2 || res.MeanNormPerf > 2.6 {
		t.Errorf("Min/60min Parallel perf = %.2f, want ~1.8", res.MeanNormPerf)
	}
	// Most of the tail epochs are grid fallback.
	recs := res.BurstRecords()
	fallbacks := 0
	for _, rec := range recs {
		if rec.Case == pss.CaseGridFallback {
			fallbacks++
		}
	}
	if fallbacks < len(recs)/2 {
		t.Errorf("fallback epochs = %d of %d", fallbacks, len(recs))
	}
}

func TestMediumAvailabilityBatterySupplements(t *testing.T) {
	// §IV-A: at medium availability batteries supplement green power
	// and 60-minute sprints still gain ~3.4x.
	res := runCase(t, solar.Med, 60*time.Minute, hybrid(t), cluster.REBatt())
	if res.MeanNormPerf < 2.8 || res.MeanNormPerf > 4.4 {
		t.Errorf("Med/60min Hybrid perf = %.2f, want ~3.4", res.MeanNormPerf)
	}
	// Both green and battery should contribute during the burst.
	var green, batt float64
	for _, rec := range res.BurstRecords() {
		green += float64(rec.Green)
		batt += float64(rec.Battery)
	}
	if green <= 0 || batt <= 0 {
		t.Errorf("expected mixed supply, green=%v battery=%v", green, batt)
	}
}

func TestREOnlyMinIsNormal(t *testing.T) {
	// §IV-B: "In the REOnly configuration, the performance results
	// with minimum renewable energy availability are the same as the
	// Normal mode because there is no power supply for sprinting."
	res := runCase(t, solar.Min, 30*time.Minute, hybrid(t), cluster.REOnly())
	if res.MeanNormPerf < 0.95 || res.MeanNormPerf > 1.05 {
		t.Errorf("REOnly/Min perf = %.2f, want 1.0", res.MeanNormPerf)
	}
	for _, rec := range res.BurstRecords() {
		if rec.Config != server.Normal() {
			t.Errorf("REOnly/Min ran %v", rec.Config)
		}
	}
}

func TestLargerBatteryBeatsSmaller(t *testing.T) {
	// §IV-B: RE-Batt (10 Ah) outperforms RE-SBatt (3.2 Ah) at
	// minimum availability.
	big := runCase(t, solar.Min, 15*time.Minute, hybrid(t), cluster.REBatt())
	small := runCase(t, solar.Min, 15*time.Minute, hybrid(t), cluster.RESBatt())
	if big.MeanNormPerf <= small.MeanNormPerf {
		t.Errorf("RE-Batt %.2f should beat RE-SBatt %.2f", big.MeanNormPerf, small.MeanNormPerf)
	}
}

func TestGreedyLosesLowSupplyPeriods(t *testing.T) {
	// §IV-A: Greedy "loses the opportunity to utilize the lower
	// green power supply periods" — under medium availability with
	// a drained battery it cannot sprint at partial intensity.
	greedy := runCase(t, solar.Med, 60*time.Minute, strategy.Greedy{}, cluster.REOnly())
	pacing := runCase(t, solar.Med, 60*time.Minute, strategy.Pacing{}, cluster.REOnly())
	if greedy.MeanNormPerf >= pacing.MeanNormPerf {
		t.Errorf("Greedy %.2f should trail Pacing %.2f at medium availability",
			greedy.MeanNormPerf, pacing.MeanNormPerf)
	}
}

func TestHybridNeverWorst(t *testing.T) {
	// Hybrid "always performs the best" across the grid; allow tiny
	// numerical slack.
	for _, level := range solar.Levels() {
		for _, d := range []time.Duration{10 * time.Minute, 30 * time.Minute} {
			h := runCase(t, level, d, hybrid(t), cluster.RESBatt())
			for _, s := range []strategy.Strategy{strategy.Greedy{}, strategy.Parallel{}, strategy.Pacing{}} {
				o := runCase(t, level, d, s, cluster.RESBatt())
				if o.MeanNormPerf > h.MeanNormPerf*1.02 {
					t.Errorf("%v/%v: %s %.2f beats Hybrid %.2f",
						level, d, s.Name(), o.MeanNormPerf, h.MeanNormPerf)
				}
			}
		}
	}
}

func TestLeadTailRecharge(t *testing.T) {
	// A lead period with green supply should leave the batteries
	// charged; a tail period after a battery-only burst should
	// recharge them (grid recharge after the DoD trigger).
	// 20 minutes at the maximal sprint drains the 10 Ah units past
	// the 40% DoD trigger (they sustain ~11 minutes).
	d := 20 * time.Minute
	lead, tail := 10*time.Minute, 30*time.Minute
	supply := trace.New("mixed", time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC), time.Minute,
		make([]float64, int((lead+d+tail)/time.Minute)))
	// Lead: green available; burst+tail: none.
	for i := 0; i < int(lead/time.Minute); i++ {
		supply.Samples[i] = 500
	}
	res, err := Run(context.Background(), Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Strategy: strategy.Greedy{},
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Lead:     lead,
		Tail:     tail,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != int((lead+d+tail)/DefaultEpoch) {
		t.Fatalf("records = %d", len(res.Records))
	}
	// Burst drains the battery...
	burst := res.BurstRecords()
	if burst[len(burst)-1].SoC >= 0.99 {
		t.Errorf("battery did not discharge: SoC %v", burst[len(burst)-1].SoC)
	}
	// ...and the tail recharges it.
	last := res.Records[len(res.Records)-1]
	if last.SoC <= burst[len(burst)-1].SoC {
		t.Errorf("battery did not recharge: %v -> %v", burst[len(burst)-1].SoC, last.SoC)
	}
	if res.Account.GridCharged <= 0 {
		t.Error("grid recharge should be accounted after a deep discharge")
	}
	// Grid top-up is budgeted at GridRechargePower per idle epoch
	// (§III-A Case 3), so the tail can bank at most that power
	// sustained over its whole duration.
	if max := units.WattHour(float64(GridRechargePower) * tail.Hours()); res.Account.GridCharged > max {
		t.Errorf("grid recharge %v exceeds the %v budget over %v",
			res.Account.GridCharged, GridRechargePower, tail)
	}
	// Idle epochs serve the background load at Normal mode.
	if res.Records[0].InBurst || res.Records[0].Config != server.Normal() {
		t.Errorf("lead epoch = %+v", res.Records[0])
	}
}

func TestEnergyAccounting(t *testing.T) {
	res := runCase(t, solar.Med, 30*time.Minute, hybrid(t), cluster.REBatt())
	acct := res.Account
	if acct.Green <= 0 {
		t.Error("green energy should be used at medium availability")
	}
	if acct.Total() <= 0 {
		t.Error("no energy delivered")
	}
	if res.BatteryCycles < 0 {
		t.Error("negative battery cycles")
	}
	// Green fraction is meaningful.
	if f := acct.GreenFraction(); f <= 0 || f > 1 {
		t.Errorf("green fraction = %v", f)
	}
}

func TestDeterminism(t *testing.T) {
	a := runCase(t, solar.Med, 30*time.Minute, strategy.Pacing{}, cluster.REBatt())
	b := runCase(t, solar.Med, 30*time.Minute, strategy.Pacing{}, cluster.REBatt())
	if a.MeanNormPerf != b.MeanNormPerf {
		t.Errorf("non-deterministic: %v vs %v", a.MeanNormPerf, b.MeanNormPerf)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Errorf("record %d differs", i)
		}
	}
}

func TestPeakDemand(t *testing.T) {
	if got := PeakDemand(testProfile, 3); got != 465 {
		t.Errorf("peak demand = %v, want 465", got)
	}
}

// pcmSprintBudgetAtHottestPeak is how long a server with the paper's
// PCM thermal package (§II, after Skach et al.: a 3 kg paraffin buffer,
// 600 kJ latent heat, 2.4 W/°C cooling, 2 kJ/°C sensible capacity,
// 25 °C ambient, 70 °C melt point, 85 °C trip limit) can sprint at the
// hottest workload peak — Web-Search's 156 W, from the 100 W Normal-mode
// steady state — before it reaches its thermal trip limit. The value
// was computed once by integrating that lumped thermal model in
// one-second steps until the trip (SPECjbb's 155 W gives 3h55m7s,
// Memcached's 146 W 5h6m42s); the model itself is no longer part of
// the code base, so the figure is kept as a constant.
const pcmSprintBudgetAtHottestPeak = 3*time.Hour + 49*time.Minute + 44*time.Second

// TestThermalNonBinding verifies the assumption the simulator rests on
// (§II): with the PCM package, the thermal sprint budget at the hottest
// workload peak exceeds every evaluated burst (at most 60 minutes), so
// power — not heat — is the binding constraint.
func TestThermalNonBinding(t *testing.T) {
	for _, p := range workload.All() {
		if p.PeakPower > 156 {
			t.Fatalf("%s peaks at %v, above the 156 W the PCM budget was computed for", p.Name, p.PeakPower)
		}
	}
	for _, d := range workload.Durations() {
		if d >= pcmSprintBudgetAtHottestPeak {
			t.Errorf("a %v burst outlasts the %v PCM sprint budget", d, pcmSprintBudgetAtHottestPeak)
		}
	}
}

// TestEnergyConservation checks the power-accounting invariants of a
// run: green energy delivered to servers plus green energy banked
// never exceeds the supply integral, and all accounted energies are
// non-negative.
func TestEnergyConservation(t *testing.T) {
	for _, level := range solar.Levels() {
		for _, green := range []cluster.GreenConfig{cluster.REBatt(), cluster.RESBatt(), cluster.REOnly()} {
			supply := solar.Synthesize(level, 30*time.Minute, time.Minute, float64(green.PeakGreen()), 42)
			res, err := Run(context.Background(), Config{
				Workload: testProfile,
				Green:    green,
				Strategy: strategy.Greedy{},
				Table:    testTable,
				Burst:    workload.Burst{Intensity: 12, Duration: 30 * time.Minute},
				Supply:   supply,
			})
			if err != nil {
				t.Fatal(err)
			}
			acct := res.Account
			if acct.Green < 0 || acct.Battery < 0 || acct.Grid < 0 || acct.GreenCharged < 0 {
				t.Fatalf("%v/%s: negative energy in %+v", level, green.Name, acct)
			}
			supplied := supply.Integral() // watt-hours
			used := float64(acct.Green + acct.GreenCharged)
			if used > supplied*1.01+1e-9 {
				t.Errorf("%v/%s: green used %v exceeds supplied %v", level, green.Name, used, supplied)
			}
			// Battery energy delivered cannot exceed the bank's
			// total usable energy plus everything charged into it.
			bank, err := green.NewBank()
			if err != nil {
				t.Fatal(err)
			}
			maxBattery := float64(bank.UsableEnergy()) + float64(acct.GreenCharged+acct.GridCharged)
			if float64(acct.Battery) > maxBattery+1e-6 {
				t.Errorf("%v/%s: battery delivered %v exceeds available %v",
					level, green.Name, acct.Battery, maxBattery)
			}
		}
	}
}

// TestOfferedTraceReplay replays a time-varying offered-rate trace:
// the strategy sees only the EWMA prediction, and the recorded offered
// rates follow the trace.
func TestOfferedTraceReplay(t *testing.T) {
	d := 30 * time.Minute
	supply := solar.Synthesize(solar.Max, d, time.Minute, 635.25, 42)
	// Offered rate ramps from 40% to 100% of the Int=12 rate.
	peak := testProfile.IntensityRate(12)
	n := int(d / time.Minute)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = peak * (0.4 + 0.6*float64(i)/float64(n-1))
	}
	offered := trace.New("offered", supply.Start, time.Minute, samples)
	res, err := Run(context.Background(), Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Strategy: strategy.Pacing{},
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   supply,
		Offered:  offered,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Records
	if len(recs) != 6 {
		t.Fatalf("records = %d", len(recs))
	}
	// Offered follows the ramp.
	if recs[0].Offered >= recs[len(recs)-1].Offered {
		t.Errorf("offered did not ramp: %v -> %v", recs[0].Offered, recs[len(recs)-1].Offered)
	}
	// Goodput tracks the offered rate while supply is abundant (the
	// early epochs are underloaded, so goodput == offered).
	if recs[0].Goodput < recs[0].Offered*0.98 {
		t.Errorf("early epoch sheds load: %v of %v", recs[0].Goodput, recs[0].Offered)
	}
	// At Max availability the late (saturating) epochs reach the
	// full sprint gain.
	last := recs[len(recs)-1]
	if last.NormPerf < 4.0 {
		t.Errorf("final epoch perf = %v", last.NormPerf)
	}
}

// TestBreakerOverdrawLastResort exercises §III-A's last resort: with
// no batteries (REOnly) and a green supply that dips below the sprint
// demand, bounded circuit-breaker overdraw keeps the sprint alive
// where the plain configuration falls back to Normal.
func TestBreakerOverdrawLastResort(t *testing.T) {
	d := 30 * time.Minute
	start := time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)
	// Green holds at 440 W, then dips to 330 W: the EWMA prediction
	// lags the dip, so the chosen setting overshoots the supply.
	samples := make([]float64, int(d/time.Minute))
	for i := range samples {
		if i < 10 {
			samples[i] = 440
		} else {
			samples[i] = 330
		}
	}
	supply := trace.New("dipping", start, time.Minute, samples)
	run := func(overdraw bool) *Result {
		res, err := Run(context.Background(), Config{
			Workload:             testProfile,
			Green:                cluster.REOnly(),
			Strategy:             strategy.Pacing{},
			Table:                testTable,
			Burst:                workload.Burst{Intensity: 12, Duration: d},
			Supply:               supply,
			AllowBreakerOverdraw: overdraw,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	boosted := run(true)
	if boosted.MeanNormPerf < plain.MeanNormPerf {
		t.Errorf("overdraw %.2f should not trail plain %.2f",
			boosted.MeanNormPerf, plain.MeanNormPerf)
	}
	sawOverdraw := false
	for _, rec := range boosted.BurstRecords() {
		if rec.Case == pss.CaseBreakerOverdraw {
			sawOverdraw = true
			if rec.Grid <= 0 {
				t.Errorf("overdraw epoch without grid power: %+v", rec)
			}
			if !rec.Config.IsSprinting() {
				t.Errorf("overdraw epoch not sprinting: %+v", rec)
			}
		}
	}
	if !sawOverdraw {
		t.Error("expected at least one breaker-overdraw epoch")
	}
	// The plain run pays for the dip with fallback epochs.
	sawFallback := false
	for _, rec := range plain.BurstRecords() {
		if rec.Case == pss.CaseGridFallback {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Error("expected fallback epochs without overdraw")
	}
}

// TestWeekEnduranceRun replays a full generated week (2016 epochs)
// with the diurnal load: the engine must stay numerically sane (no
// NaNs, SoC within bounds) and the batteries must cycle rather than
// drift.
func TestWeekEnduranceRun(t *testing.T) {
	if testing.Short() {
		t.Skip("endurance run")
	}
	scfg := solar.DefaultGeneratorConfig() // 7 days
	scfg.Seed = 42
	sun, err := solar.Generate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	day := workload.DiurnalPattern(scfg.Start, time.Minute)
	offered := day.Repeat(7).Scale(testProfile.MaxGoodput(server.Normal()))
	h, err := strategy.NewHybrid(testProfile, testTable)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Workload: testProfile,
		Green:    cluster.REBatt(),
		Strategy: h,
		Table:    testTable,
		Burst:    workload.Burst{Intensity: 12, Duration: 7 * 24 * time.Hour},
		Supply:   sun,
		Offered:  offered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Records); got != 7*24*12 {
		t.Fatalf("records = %d", got)
	}
	floor := 1 - 0.40
	sprints := 0
	for i, rec := range res.Records {
		if rec.SoC < floor-1e-9 || rec.SoC > 1+1e-9 {
			t.Fatalf("epoch %d: SoC %v out of bounds", i, rec.SoC)
		}
		if rec.NormPerf < 0 || rec.NormPerf != rec.NormPerf { // NaN check
			t.Fatalf("epoch %d: perf %v", i, rec.NormPerf)
		}
		if rec.Config.IsSprinting() {
			sprints++
		}
	}
	if sprints == 0 {
		t.Error("a week with daily spikes should sprint at least once")
	}
	// Batteries cycle over the week (sprint + recharge), they don't
	// just drain once.
	if res.BatteryCycles < 1 {
		t.Errorf("weekly battery cycles = %v", res.BatteryCycles)
	}
	if last := res.Records[len(res.Records)-1]; last.SoC < floor {
		t.Errorf("end-of-week SoC = %v", last.SoC)
	}
}
