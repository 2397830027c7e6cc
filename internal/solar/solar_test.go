package solar

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"greensprint/internal/units"
)

func TestPanelPeakAC(t *testing.T) {
	p := DefaultPanel()
	// The paper: 275 W * 0.77 = 211.75 W.
	if got := p.PeakAC(); !units.NearlyEqual(float64(got), 211.75, 1e-12) {
		t.Errorf("PeakAC = %v, want 211.75", got)
	}
}

func TestPanelACPower(t *testing.T) {
	p := DefaultPanel()
	tests := []struct {
		irr  float64
		want float64
	}{
		{0, 0},
		{-10, 0},
		{500, 105.875},
		{1000, 211.75},
		{1500, 211.75}, // clamped at nameplate
	}
	for _, tt := range tests {
		if got := p.ACPower(tt.irr); !units.NearlyEqual(float64(got), tt.want, 1e-9) {
			t.Errorf("ACPower(%v) = %v, want %v", tt.irr, got, tt.want)
		}
	}
}

func TestArrayPeaks(t *testing.T) {
	re := Array{Panel: DefaultPanel(), Panels: 3}
	if got := re.PeakAC(); !units.NearlyEqual(float64(got), 635.25, 1e-9) {
		t.Errorf("RE array peak = %v, want 635.25", got)
	}
	sre := Array{Panel: DefaultPanel(), Panels: 2}
	if got := sre.PeakAC(); !units.NearlyEqual(float64(got), 423.5, 1e-9) {
		t.Errorf("SRE array peak = %v, want 423.5", got)
	}
}

func TestElevationDiurnal(t *testing.T) {
	s := DefaultSite()
	noon := time.Date(2018, 6, 21, 12, 0, 0, 0, time.UTC)
	midnight := time.Date(2018, 6, 21, 0, 0, 0, 0, time.UTC)
	if el := s.Elevation(noon); el <= 0 {
		t.Errorf("noon elevation = %v, want positive", el)
	}
	if el := s.Elevation(midnight); el >= 0 {
		t.Errorf("midnight elevation = %v, want negative", el)
	}
	// Summer-solstice noon is higher than winter-solstice noon.
	winterNoon := time.Date(2018, 12, 21, 12, 0, 0, 0, time.UTC)
	if s.Elevation(noon) <= s.Elevation(winterNoon) {
		t.Error("summer noon should be higher than winter noon")
	}
}

func TestClearSkyIrradiance(t *testing.T) {
	s := DefaultSite()
	noon := time.Date(2018, 6, 21, 12, 0, 0, 0, time.UTC)
	ghi := s.ClearSkyIrradiance(noon)
	if ghi < 800 || ghi > 1100 {
		t.Errorf("summer noon GHI = %v, want within [800,1100]", ghi)
	}
	night := time.Date(2018, 6, 21, 2, 0, 0, 0, time.UTC)
	if got := s.ClearSkyIrradiance(night); got != 0 {
		t.Errorf("night GHI = %v, want 0", got)
	}
	// Higher turbidity attenuates.
	hazy := Site{LatitudeDeg: s.LatitudeDeg, Turbidity: 5}
	if hazy.ClearSkyIrradiance(noon) >= ghi {
		t.Error("hazier site should produce less irradiance")
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Days = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for zero days")
	}
	cfg = DefaultGeneratorConfig()
	cfg.Step = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for zero step")
	}
	cfg = DefaultGeneratorConfig()
	cfg.Array.Panels = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("expected error for zero panels")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Days = 2
	cfg.Skies = []Sky{Clear, Overcast}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2*24*60 {
		t.Fatalf("len = %d, want %d", tr.Len(), 2*24*60)
	}
	peak := float64(cfg.Array.PeakAC())
	st := tr.Stats()
	if st.Min < 0 {
		t.Errorf("negative output %v", st.Min)
	}
	if st.Max > peak+1e-9 {
		t.Errorf("output %v exceeds array peak %v", st.Max, peak)
	}
	// Clear day should reach close to peak around noon.
	day1 := tr.Slice(cfg.Start, cfg.Start.Add(24*time.Hour))
	if day1.Max() < 0.9*peak {
		t.Errorf("clear day max = %v, want >= 90%% of %v", day1.Max(), peak)
	}
	// Overcast day should stay well below peak.
	day2 := tr.Slice(cfg.Start.Add(24*time.Hour), cfg.Start.Add(48*time.Hour))
	if day2.Max() > 0.6*peak {
		t.Errorf("overcast day max = %v, want <= 60%% of %v", day2.Max(), peak)
	}
	// Night samples are zero.
	if v := tr.At(cfg.Start.Add(2 * time.Hour)); v != 0 {
		t.Errorf("2am output = %v, want 0", v)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.Days = 1
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should generate different traces")
	}
}

func TestSkyString(t *testing.T) {
	if Clear.String() != "clear" || PartlyCloudy.String() != "partly-cloudy" || Overcast.String() != "overcast" {
		t.Error("sky names wrong")
	}
	if Sky(99).String() != "Sky(99)" {
		t.Error("unknown sky formatting")
	}
}

func TestAvailabilityString(t *testing.T) {
	if Min.String() != "Min" || Med.String() != "Med" || Max.String() != "Max" {
		t.Error("availability names wrong")
	}
	if Availability(7).String() != "Availability(7)" {
		t.Error("unknown availability formatting")
	}
	if len(Levels()) != 3 {
		t.Error("Levels should return 3 classes")
	}
}

// band returns the [lo,hi] fraction-of-peak band that defines an
// availability class.
func band(a Availability) (lo, hi float64) {
	switch a {
	case Min:
		return 0, 0.05
	case Med:
		return 0.35, 0.65
	default: // Max
		return 0.90, 1.01
	}
}

func TestSynthesize(t *testing.T) {
	const peak = 635.25
	d := 30 * time.Minute
	for _, level := range Levels() {
		tr := Synthesize(level, d, time.Minute, peak, 42)
		if tr.Len() != 30 {
			t.Fatalf("%v: len = %d", level, tr.Len())
		}
		mean := tr.Mean()
		lo, hi := band(level)
		frac := mean / peak
		// Synthesized traces should land in (or very near) the band.
		if frac < lo-0.1 || frac > hi+0.1 {
			t.Errorf("%v synthesized mean fraction = %v, band [%v,%v]", level, frac, lo, hi)
		}
		if tr.Max() > peak+1e-9 {
			t.Errorf("%v exceeds peak", level)
		}
	}
	// Degenerate arguments still produce at least one sample.
	tr := Synthesize(Min, 0, 0, peak, 1)
	if tr.Len() != 1 {
		t.Errorf("degenerate synthesize len = %d", tr.Len())
	}
}

// Property: generated power is always within [0, array peak], at any
// seed and sky mix.
func TestGenerateBoundedProperty(t *testing.T) {
	f := func(seed int64, skyRaw uint8) bool {
		cfg := DefaultGeneratorConfig()
		cfg.Days = 1
		cfg.Seed = seed
		cfg.Skies = []Sky{Sky(int(skyRaw) % 3)}
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		peak := float64(cfg.Array.PeakAC())
		st := tr.Stats()
		return st.Min >= 0 && st.Max <= peak+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: elevation is symmetric-ish around solar noon for the
// simple hour-angle model (within numerical tolerance).
func TestElevationSymmetryProperty(t *testing.T) {
	s := DefaultSite()
	f := func(offsetMin uint16) bool {
		off := time.Duration(int(offsetMin)%360) * time.Minute
		noon := time.Date(2018, 5, 10, 12, 0, 0, 0, time.UTC)
		a := s.Elevation(noon.Add(off))
		b := s.Elevation(noon.Add(-off))
		return math.Abs(a-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
