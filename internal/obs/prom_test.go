package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"testing"
)

var updateScrape = flag.Bool("update", false, "rewrite the testdata/*.golden scrapes from the current output")

// scrapeEvents is a fixed event sequence for the scrape golden: epoch
// latencies and goodputs spread over every le ladder's range and past
// both ends, two fleet classes, alternating strategies, configs and
// supply cases, and a chaos annotation the collector must skip.
func scrapeEvents() []Event {
	var evs []Event
	for i := 0; i < 64; i++ {
		ev := sampleEvent(i)
		ev.LatencySec = 2e-4 * math.Pow(1.31, float64(i))
		ev.Goodput = 0.5 * math.Pow(1.29, float64(i))
		ev.SoC = 1 - float64(i)/80
		if i%3 == 0 {
			ev.Strategy, ev.Config, ev.Case = "Greedy", "2.0GHz/12", "green-only"
		}
		if i%5 == 0 {
			ev.Classes = []ClassStat{
				{Name: "web", Alive: 3 - i%2, Goodput: ev.Goodput / 2, EnergyWh: float64(i) * 1.5},
				{Name: "batch", Alive: 1, Goodput: ev.Goodput / 4, EnergyWh: float64(i) * 0.25},
			}
		}
		evs = append(evs, ev)
		if i == 20 {
			evs = append(evs, Event{Epoch: i, Chaos: "fault", ChaosMode: "server-crash"})
		}
	}
	return evs
}

// edgeEvents pins the presence and escaping rules: a chaos-only
// event; a non-sprinting, QoS-met epoch whose green split is negative
// and battery split NaN (a counter skips such a delta, a gauge
// renders NaN); strategy, config, case and class names holding `"`,
// `\` and a newline; and an epoch with +Inf latency and NaN goodput
// on a zero server count, which repeats the negative and NaN splits
// so the split gauges end on them.
func edgeEvents() []Event {
	evs := []Event{{Epoch: 0, Chaos: "fault", ChaosMode: "server-crash", ChaosTarget: 2}}

	ev := sampleEvent(1)
	ev.Sprinting, ev.QoSViolation = false, false
	ev.GreenW, ev.BatteryW = -5, math.NaN()
	evs = append(evs, ev)

	ev = sampleEvent(2)
	ev.Strategy = "Hy\"brid\\\n"
	ev.Config = `3.4"GHz\16` + "\n"
	ev.Case = "green\\\"only\n"
	ev.Classes = []ClassStat{
		{Name: "we\"b\\\n", Alive: 2, Goodput: 10.5, EnergyWh: 3},
		{Name: "batch", Alive: 1, Goodput: 4, EnergyWh: 1.25},
	}
	evs = append(evs, ev)

	ev = sampleEvent(3)
	ev.Servers = 0
	ev.GreenW, ev.BatteryW = -5, math.NaN()
	ev.LatencySec, ev.Goodput = math.Inf(1), math.NaN()
	return append(evs, ev)
}

// TestPrometheusScrapeGolden pins the exposition bytes of a scrape
// after scrapeEvents: every family, label set and histogram bucket.
// go test ./internal/obs -run 'TestPrometheus.*Golden' -update
// rewrites the goldens, only on purpose.
func TestPrometheusScrapeGolden(t *testing.T) {
	checkScrapeGolden(t, "testdata/scrape.golden", scrapeEvents())
}

// TestPrometheusEmptyScrapeGolden pins a scrape of a fresh collector:
// HELP and TYPE lines only, plus the zero quantile gauges and the
// empty histograms.
func TestPrometheusEmptyScrapeGolden(t *testing.T) {
	checkScrapeGolden(t, "testdata/scrape_empty.golden", nil)
}

// TestPrometheusEdgeScrapeGolden pins a scrape after edgeEvents.
func TestPrometheusEdgeScrapeGolden(t *testing.T) {
	checkScrapeGolden(t, "testdata/scrape_edge.golden", edgeEvents())
}

// checkScrapeGolden emits evs into a fresh collector and compares
// its scrape with the golden at path.
func checkScrapeGolden(t *testing.T, path string, evs []Event) {
	t.Helper()
	c := NewCollector()
	for _, ev := range evs {
		if err := c.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateScrape {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("scrape differs from %s:\n%s", path, buf.Bytes())
	}
}
