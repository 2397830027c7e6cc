package rl

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tab, _ := NewTable(0.7, 0.9, testPowerLevels, testLoadLevels)
	s1 := State{PowerLevel: 3, LoadLevel: 2}
	s2 := State{PowerLevel: 10, LoadLevel: 9}
	tab.Seed(s1, 5, 2.5)
	tab.Seed(s2, 62, -1.25)
	tab.Update(s1, 7, 1.0, s2)

	var buf bytes.Buffer
	if err := tab.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(buf.Bytes(), newTestTable(t))
	if err != nil {
		t.Fatal(err)
	}
	if back.States() != tab.States() {
		t.Errorf("states = %d, want %d", back.States(), tab.States())
	}
	for _, s := range []State{s1, s2} {
		for a := 0; a < len(tab.Actions()); a++ {
			if back.Q(s, a) != tab.Q(s, a) {
				t.Fatalf("Q(%v,%d) = %v, want %v", s, a, back.Q(s, a), tab.Q(s, a))
			}
		}
	}
	// The restored table keeps learning.
	before := back.Q(s1, 7)
	back.Update(s1, 7, 5, s2)
	if back.Q(s1, 7) == before {
		t.Error("restored table should keep learning")
	}
}

func TestTableJSONDeterministic(t *testing.T) {
	tab, _ := NewTable(0.7, 0.9, testPowerLevels, testLoadLevels)
	for pl := 0; pl < 5; pl++ {
		tab.Seed(State{PowerLevel: pl, LoadLevel: pl % 3}, pl, float64(pl))
	}
	var a, b bytes.Buffer
	if err := tab.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := tab.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("serialization not deterministic")
	}
}

// q63 is a Q row of the knob space's length.
var q63 = "[" + strings.Repeat("0,", 62) + "0]"

func TestReadJSONRejects(t *testing.T) {
	cases := []string{
		`{bad`,
		`{"alpha":0,"gamma":0.9,"actions":63,"first_action":"6c@1.2GHz","last_action":"12c@2GHz"}`,
		`{"alpha":0.7,"gamma":0.9,"actions":10,"first_action":"6c@1.2GHz","last_action":"12c@2GHz"}`,
		`{"alpha":0.7,"gamma":0.9,"actions":63,"first_action":"1c@1GHz","last_action":"12c@2GHz"}`,
		`{"alpha":0.7,"gamma":0.9,"actions":63,"first_action":"6c@1.2GHz","last_action":"12c@2GHz",
		  "states":[{"power_level":0,"load_level":0,"q":[1,2]}]}`,
	}
	// A state outside the base's bounds, even behind a valid one.
	for _, st := range []string{
		`"power_level":21,"load_level":0`,
		`"power_level":0,"load_level":10`,
		`"power_level":0,"load_level":0,"degraded":4`,
		`"power_level":-1,"load_level":0`,
		`"power_level":1000000,"load_level":0`,
	} {
		cases = append(cases, `{"alpha":0.7,"gamma":0.9,"actions":63,"first_action":"6c@1.2GHz","last_action":"12c@2GHz",
		  "states":[{"power_level":0,"load_level":0,"q":`+q63+`},{`+st+`,"q":`+q63+`}]}`)
	}
	for i, in := range cases {
		if _, err := ReadJSON([]byte(in), newTestTable(t)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
