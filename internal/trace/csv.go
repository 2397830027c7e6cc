package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// CSV layout (NREL MIDC-like): a header row followed by
// "timestamp,value" records where timestamp is RFC 3339, with
// fractional seconds when the instant has them. WriteCSV and ReadCSV
// round-trip a Trace through this format; ReadCSV validates that the
// records are evenly spaced.

// WriteCSV writes the trace to w.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", t.csvValueHeader()}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i, v := range t.Samples {
		rec := []string{
			t.TimeAt(i).Format(time.RFC3339Nano),
			strconv.FormatFloat(v, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func (t *Trace) csvValueHeader() string {
	if t.Name == "" {
		return "value"
	}
	return t.Name
}

// ReadCSV parses a trace written by WriteCSV (or any two-column CSV
// with an RFC 3339 timestamp and a float value). The sampling step is
// inferred from the first two records, and every record's time must be
// exactly the trace's TimeAt for its index, so a step too large for a
// time.Duration, or one whose multiples overflow, is rejected instead
// of being read as a different trace.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(recs) < 3 { // header + at least two samples to infer the step
		return nil, fmt.Errorf("trace: csv needs a header and >=2 records, got %d rows", len(recs))
	}
	name := recs[0][1]
	body := recs[1:]
	times := make([]time.Time, len(body))
	samples := make([]float64, len(body))
	for i, rec := range body {
		ts, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad timestamp %q: %w", i+2, rec[0], err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: bad value %q: %w", i+2, rec[1], err)
		}
		times[i], samples[i] = ts, v
	}
	tr := &Trace{Name: name, Start: times[0], Step: times[1].Sub(times[0]), Samples: samples}
	if tr.Step <= 0 {
		return nil, fmt.Errorf("trace: non-increasing timestamps (%v then %v)", times[0], times[1])
	}
	for i, ts := range times {
		if want := tr.TimeAt(i); !ts.Equal(want) {
			return nil, fmt.Errorf("trace: irregular step at row %d: %v, want %v", i+2, ts, want)
		}
	}
	return tr, nil
}
