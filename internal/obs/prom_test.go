package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"testing"
)

var updateScrape = flag.Bool("update", false, "rewrite testdata/scrape.golden from the current output")

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

// TestPrometheusScrapeGolden pins the exposition bytes of a scrape
// after scrapeEvents: every family, label set and histogram bucket.
// go test ./internal/obs -run TestPrometheusScrapeGolden -update
// rewrites the golden, only on purpose.
func TestPrometheusScrapeGolden(t *testing.T) {
	c := NewCollector()
	for _, ev := range scrapeEvents() {
		if err := c.Emit(ev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/scrape.golden"
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
