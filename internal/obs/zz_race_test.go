package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestCollectorConcurrentScrapeRace writes a counter series and the
// latency histogram under c.mu while another goroutine scrapes, for
// the race detector to check that one lock covers both.
func TestCollectorConcurrentScrapeRace(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			c.mu.Lock()
			c.add(fEpochs, "", 1)
			c.lat.Observe(0.01)
			c.mu.Unlock()
			runtime.Gosched()
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.WritePrometheus(io.Discard)
			runtime.Gosched()
		}
	}()
	wg.Wait()
}

// TestScrapeHistogramCountsAgree scrapes while another goroutine
// observes epochs: in every scrape each histogram's +Inf bucket must
// equal its _count, as one read of the histogram gives.
func TestScrapeHistogramCountsAgree(t *testing.T) {
	c := NewCollector()
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 20000; i++ {
			ev := sampleEvent(i)
			ev.LatencySec = float64(i%97) / 10
			c.Observe(ev)
		}
	}()
	var buf bytes.Buffer
	for scrapes := 0; ; scrapes++ {
		select {
		case <-stop:
			if scrapes == 0 {
				t.Fatal("no scrape ran")
			}
			return
		default:
		}
		buf.Reset()
		if err := c.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"greensprint_epoch_latency_seconds", "greensprint_epoch_goodput"} {
			inf := sampleValue(t, buf.String(), name+`_bucket{le="+Inf"} `)
			if count := sampleValue(t, buf.String(), name+"_count "); inf != count {
				t.Fatalf("scrape %d: %s +Inf bucket %s, _count %s", scrapes, name, inf, count)
			}
		}
	}
}

// TestScrapeSeesWholeEpochs scrapes while another goroutine observes
// epochs: every scrape that has counted an epoch must show
// greensprint_epochs_total equal to both histograms' _count, and each
// +Inf bucket equal to its _count, so no scrape renders half an epoch.
func TestScrapeSeesWholeEpochs(t *testing.T) {
	c := NewCollector()
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for i := 0; i < 20000; i++ {
			ev := sampleEvent(i)
			ev.LatencySec = float64(i%97) / 10
			ev.Goodput = float64(i % 1013)
			c.Observe(ev)
		}
	}()
	var buf bytes.Buffer
	counted := 0
	for scrapes := 0; ; scrapes++ {
		select {
		case <-stop:
			if counted == 0 {
				t.Fatalf("none of %d scrapes counted an epoch", scrapes)
			}
			return
		default:
		}
		buf.Reset()
		if err := c.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "\ngreensprint_epochs_total ") {
			continue
		}
		counted++
		epochs := sampleValue(t, out, "greensprint_epochs_total ")
		for _, name := range []string{"greensprint_epoch_latency_seconds", "greensprint_epoch_goodput"} {
			count := sampleValue(t, out, name+"_count ")
			inf := sampleValue(t, out, name+`_bucket{le="+Inf"} `)
			if count != epochs || inf != count {
				t.Fatalf("scrape %d: epochs_total %s, %s _count %s, +Inf bucket %s", scrapes, epochs, name, count, inf)
			}
		}
	}
}

// sampleValue returns the value of the exposition line starting with
// prefix.
func sampleValue(t *testing.T, out, prefix string) string {
	t.Helper()
	i := strings.Index(out, "\n"+prefix)
	if i < 0 {
		t.Fatalf("no %q line", prefix)
	}
	v, _, _ := strings.Cut(out[i+1+len(prefix):], "\n")
	return v
}

// TestJSONLConcurrentEmit shares one JSONL, and so its reused encode
// buffer, between goroutines: every line must come out whole.
func TestJSONLConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	const workers, per = 4, 200
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := j.Emit(sampleEvent(w*per + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for _, ln := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev Event
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("torn line %q: %v", ln, err)
		}
		seen[ev.Epoch] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("%d distinct events, want %d", len(seen), workers*per)
	}
}
