package obs

import (
	"io"
	"testing"
)

// BenchmarkCollectorScrape renders one /metrics scrape of a collector
// that has observed the scrape golden's events.
func BenchmarkCollectorScrape(b *testing.B) {
	c := NewCollector()
	for _, ev := range scrapeEvents() {
		c.Observe(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorObserve folds one epoch event, cycling through
// the scrape golden's events, into a collector.
func BenchmarkCollectorObserve(b *testing.B) {
	c := NewCollector()
	evs := scrapeEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe(evs[i%len(evs)])
	}
}
