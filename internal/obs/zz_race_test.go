package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"testing"
)

func TestCollectorConcurrentScrapeRace(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			c.mu.Lock()
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
			_ = c.reg.WritePrometheus(io.Discard)
			runtime.Gosched()
		}
	}()
	wg.Wait()
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
