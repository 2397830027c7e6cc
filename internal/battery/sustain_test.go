package battery

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"greensprint/internal/units"
)

// refMaxSustainablePower is MaxSustainablePower without the memo or the
// guiding band: the plain 60-step bisection calling RemainingTime at
// every midpoint. The guided bisection must return its bits.
func refMaxSustainablePower(b *Battery, d time.Duration) units.Watt {
	if d <= 0 {
		return units.Watt(math.Inf(1))
	}
	if b.AtFloor() {
		return 0
	}
	lo, hi := 0.0, 100*float64(b.cfg.RatedEnergy())
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if b.RemainingTime(units.Watt(mid)) >= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	return units.Watt(lo)
}

// sustainEvals replays MaxSustainablePower's bisection and counts the
// RemainingTime calls it makes: the band's two checks plus every
// midpoint inside the band.
func sustainEvals(b *Battery, d time.Duration) int {
	band := b.sustainBand(d)
	evals := 2
	lo, hi := 0.0, 100*float64(b.cfg.RatedEnergy())
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if mid > band.lo && mid < band.hi {
			evals++
		}
		if band.sustains(b, mid, d) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return evals
}

// sustainState builds a unit in an arbitrary state: SoC as a fraction of
// the usable range above the floor (0 is the floor itself), and the
// cumulative capacity fade and resistance rise.
func sustainState(t testing.TB, cfg Config, usable, fade, resist float64) *Battery {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fade != 1 || resist != 1 {
		if err := b.Degrade(fade, resist); err != nil {
			t.Fatal(err)
		}
	}
	b.soc = b.floorSoC() + usable*cfg.MaxDoD
	return b
}

func checkSustainMatches(t testing.TB, b *Battery, d time.Duration) {
	t.Helper()
	b.maxSust = maxSustMemo{}
	got, want := b.MaxSustainablePower(d), refMaxSustainablePower(b, d)
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("soc=%v fade=%v resist=%v d=%v: MaxSustainablePower %v, reference %v",
			b.soc, b.capFade, b.resist, d, got, want)
	}
}

// TestTimeToEmptySaturates pins the overflow fix: a tiny draw's drain
// time exceeds the largest Duration and must saturate there, as a zero
// draw does, instead of wrapping negative.
func TestTimeToEmptySaturates(t *testing.T) {
	c := ServerBattery()
	if got := c.TimeToEmpty(4e-5); got != time.Duration(math.MaxInt64) {
		t.Errorf("TimeToEmpty(4e-5 W) = %v, want the saturated maximum", got)
	}
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.RemainingTime(1e-5); got <= 0 {
		t.Errorf("RemainingTime(1e-5 W) = %v, want positive", got)
	}
	// A full unit with every bit of charge usable: frac·2^63 must not
	// wrap either.
	c.MaxDoD = 1
	if b, err = New(c); err != nil {
		t.Fatal(err)
	}
	if got := b.RemainingTime(1e-9); got != time.Duration(math.MaxInt64) {
		t.Errorf("MaxDoD=1 RemainingTime(1e-9 W) = %v, want the saturated maximum", got)
	}
	// A unit a hair above the floor can still hold about 6e-5 W for
	// 33h43m; the wrapped drain time used to report 0 W.
	b, err = New(ServerBattery())
	if err != nil {
		t.Fatal(err)
	}
	b.soc = 0.600016774020641
	d := 33*time.Hour + 43*time.Minute
	p := b.MaxSustainablePower(d)
	if p < 5e-5 || p > 7e-5 {
		t.Errorf("MaxSustainablePower(%v) = %v, want about 6e-5 W", d, p)
	}
	if got := b.RemainingTime(p); got < d {
		t.Errorf("RemainingTime(%v) = %v < %v", p, got, d)
	}
}

// TestMaxSustainablePowerMatchesReference compares the guided bisection
// with the plain loop bit for bit over random states: SoC anywhere
// above the floor (including a hair above it), healthy and degraded
// units, both of the paper's units and off-default Peukert exponents,
// and horizons from a second to two days. It also checks that the band
// is what makes the search cheap: on the epoch-scale horizons the
// engine asks about it must verify, cutting the 60 calls.
func TestMaxSustainablePowerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfgs := []Config{ServerBattery(), SmallServerBattery()}
	for i := 0; i < 20000; i++ {
		cfg := cfgs[i%len(cfgs)]
		if i%5 == 4 {
			cfg.PeukertK = 1 + 0.5*rng.Float64()
			cfg.MaxDoD = 0.1 + 0.9*rng.Float64()
		}
		usable := rng.Float64()
		if i%7 == 0 {
			usable = math.Pow(10, -12*rng.Float64())
		}
		fade, resist := 1.0, 1.0
		if i%3 == 0 {
			fade, resist = 0.5+0.5*rng.Float64(), 1+rng.Float64()
		}
		d := time.Duration(math.Exp(rng.Float64()*math.Log(48*3600)) * float64(time.Second))
		checkSustainMatches(t, sustainState(t, cfg, usable, fade, resist), d)
	}
	b := sustainState(t, ServerBattery(), 0.7, 1, 1)
	for _, d := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour} {
		if n := sustainEvals(b, d); n >= 30 {
			t.Errorf("d=%v: %d RemainingTime calls, want the band to cut the 60", d, n)
		}
	}
}

// FuzzMaxSustainablePower checks the guided bisection against the plain
// 60-step loop bit for bit. The inputs pick the SoC above the floor
// (down to a hair above it), the degradation and a horizon from 1 s to
// 48 h.
func FuzzMaxSustainablePower(f *testing.F) {
	f.Add(0.5, 1.0, 1.0, int64(5*time.Minute), false)
	f.Add(1.0, 1.0, 1.0, int64(time.Second), true)
	f.Add(1e-12, 0.7, 1.6, int64(48*time.Hour), false)
	f.Add(0.000041935, 1.0, 1.0, int64(33*time.Hour+43*time.Minute), false)
	f.Fuzz(func(t *testing.T, usable, fade, resist float64, ns int64, small bool) {
		if !(usable > 0 && usable <= 1) || !(fade > 0 && fade <= 1) || !(resist >= 1 && resist <= 1e3) {
			t.Skip()
		}
		d := time.Duration(ns)
		if d < time.Second || d > 48*time.Hour {
			t.Skip()
		}
		cfg := ServerBattery()
		if small {
			cfg = SmallServerBattery()
		}
		checkSustainMatches(t, sustainState(t, cfg, usable, fade, resist), d)
	})
}

var sustainSink units.Watt

// BenchmarkMaxSustainablePower measures the Peukert bisection when its
// memo misses every op, as it does in a burst epoch: the SoC moves
// between calls. It reports the RemainingTime calls per op.
func BenchmarkMaxSustainablePower(b *testing.B) {
	const states = 64
	bat, err := New(ServerBattery())
	if err != nil {
		b.Fatal(err)
	}
	socs := make([]float64, states)
	for i := range socs {
		socs[i] = bat.floorSoC() + bat.cfg.MaxDoD*(0.05+0.9*float64(i)/states)
	}
	const d = 5 * time.Minute
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.soc = socs[i%states]
		sustainSink = bat.MaxSustainablePower(d)
	}
	b.StopTimer()
	evals := 0
	for _, soc := range socs {
		bat.soc = soc
		evals += sustainEvals(bat, d)
	}
	b.ReportMetric(float64(evals)/states, "evals/op")
}
