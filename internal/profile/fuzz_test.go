package profile

import (
	"bytes"
	"strings"
	"testing"

	"greensprint/internal/server"
	"greensprint/internal/workload"
)

// FuzzReadJSON hardens the profiling-table loader: every table it
// accepts re-encodes through WriteJSON to bytes that read back and
// re-encode to the same bytes, and its Lookup, LevelEntries and
// BestWithin agree with a linear scan of Entries.
func FuzzReadJSON(f *testing.F) {
	tab, err := Build(workload.SPECjbb(), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	canon := buf.String()
	f.Add(canon)
	f.Add(`{bad`)
	f.Add(`{"levels":1000000000,"entries":[]}`)
	for _, in := range []string{
		strings.Replace(canon, `"levels": 1`, `"levels": 2`, 1),
		strings.Replace(canon, `"levels": 1`, `"levels": 0`, 1),
		strings.Replace(canon, `"level": 0`, `"level": 1`, 1),
		strings.Replace(canon, `"freq_mhz": 1200`, `"freq_mhz": 1300`, 1),
		strings.Replace(canon, `"cores": 6`, `"cores": 5`, 1),
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		var b1, b2 bytes.Buffer
		if err := got.WriteJSON(&b1); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded table does not read back: %v", err)
		}
		if err := back.WriteJSON(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("re-encoding changed the bytes:\n%s\n%s", b1.Bytes(), b2.Bytes())
		}
		for level := -1; level <= got.Levels; level++ {
			var inLevel []Entry
			for _, e := range got.Entries {
				if e.Level == level {
					inLevel = append(inLevel, e)
				}
			}
			for _, c := range append(server.Configs(), server.Config{Cores: server.MaxCores + 1, Freq: 1200}) {
				want, wantOK := Entry{}, false
				for _, e := range inLevel {
					if e.Config() == c {
						want, wantOK = e, true
						break
					}
				}
				if e, ok := got.Lookup(level, c); e != want || ok != wantOK {
					t.Fatalf("Lookup(%d, %v) = %+v, %v; scan %+v, %v", level, c, e, ok, want, wantOK)
				}
			}
			es := got.LevelEntries(level)
			if len(es) != len(inLevel) {
				t.Fatalf("level %d: LevelEntries has %d entries, scan %d", level, len(es), len(inLevel))
			}
			for i := 1; i < len(es); i++ {
				if es[i].Power < es[i-1].Power {
					t.Fatalf("level %d: LevelEntries not sorted by power", level)
				}
			}
			if len(inLevel) > 0 {
				budget := inLevel[len(inLevel)/2].Power
				if e, ok := got.BestWithin(level, budget, nil); !ok || e.Power > budget {
					t.Fatalf("level %d: BestWithin(%v) = %+v, %v", level, budget, e, ok)
				}
			}
		}
	})
}
