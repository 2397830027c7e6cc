package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV hardens the trace parser against malformed input: it
// must either return an error or a well-formed trace, never panic, and
// accepted traces must round-trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("timestamp,value\n2018-05-01T00:00:00Z,1\n2018-05-01T00:01:00Z,2\n")
	f.Add("timestamp,value\n2018-05-01T00:00:00Z,1\n")
	f.Add("timestamp,value\nnot-a-time,1\n2018-05-01T00:01:00Z,2\n")
	f.Add("a,b,c\n1,2,3\n4,5,6\n")
	f.Add("")
	f.Add("timestamp,solar\n2018-05-01T00:00:00Z,-5e300\n2018-05-01T00:30:00Z,1e300\n")
	// A gap wider than time.Duration holds saturates the step.
	f.Add(",\n0000-01-01T0:00:00Z,0\n1000-01-01T0:00:00Z,0")
	// A sub-second step round-trips only with fractional seconds.
	f.Add("t,v\n2018-05-01T00:00:00Z,1\n2018-05-01T00:00:00.5Z,2\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if tr.Step <= 0 {
			t.Fatalf("accepted trace with step %v", tr.Step)
		}
		if tr.Len() < 2 {
			t.Fatalf("accepted trace with %d samples", tr.Len())
		}
		// Accepted input round-trips through WriteCSV/ReadCSV.
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.Len() != tr.Len() || back.Step != tr.Step {
			t.Fatalf("round trip changed shape: %d/%v vs %d/%v",
				back.Len(), back.Step, tr.Len(), tr.Step)
		}
	})
}
