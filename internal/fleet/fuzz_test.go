package fleet

import (
	"encoding/json"
	"testing"

	"greensprint/internal/cluster"
)

// FuzzSpec feeds arbitrary bytes through LoadSpec's strict decoder.
// Every input must either be rejected with an error or generate a
// topology whose census is consistent: the server count equals
// total_servers, and every server belongs to exactly one class and
// exactly one zone. Absurd sizes must be refused before Generate
// allocates for them.
func FuzzSpec(f *testing.F) {
	for _, spec := range []Spec{FromGreen(cluster.REBatt(), 42), mixedSpec(100, 1)} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"huge","total_servers":4611686018427387904,"templates":[{"name":"a","weight":1}]}`))
	f.Add([]byte(`{"name":"zones","total_servers":3,"zones":1099511627776,"templates":[{"name":"a","weight":1}]}`))
	f.Add([]byte(`{"name":"rack","total_servers":10,"rack_size":9223372036854775807,"templates":[{"name":"a","weight":1}]}`))
	f.Add([]byte(`{"name":"x","total_server":40}`))
	f.Add([]byte(`{bad`))
	f.Fuzz(func(t *testing.T, in []byte) {
		spec, err := parseSpec(in)
		if err != nil {
			return
		}
		topo, err := spec.Generate()
		if err != nil {
			t.Fatalf("Generate rejected a validated spec: %v", err)
		}
		if topo.Servers != spec.TotalServers {
			t.Fatalf("topology has %d servers, spec asks for %d", topo.Servers, spec.TotalServers)
		}
		perClass := make([]int, len(topo.Classes))
		for i := 0; i < topo.Servers; i++ {
			c := topo.ClassOf(i)
			if c < 0 || c >= len(perClass) {
				t.Fatalf("server %d in class %d of %d", i, c, len(perClass))
			}
			perClass[c]++
		}
		for c, n := range perClass {
			if n != topo.Classes[c].Servers {
				t.Fatalf("class %d holds %d servers, census says %d", c, n, topo.Classes[c].Servers)
			}
		}
		members := topo.ZoneMembers()
		if len(members) != topo.Zones {
			t.Fatalf("%d zone member lists for %d zones", len(members), topo.Zones)
		}
		inZones := make([]int, topo.Servers)
		for z, m := range members {
			for _, i := range m {
				if i < 0 || i >= topo.Servers {
					t.Fatalf("zone %d lists server %d of %d", z, i, topo.Servers)
				}
				inZones[i]++
			}
		}
		for i, n := range inZones {
			if n != 1 {
				t.Fatalf("server %d belongs to %d zones", i, n)
			}
		}
	})
}
