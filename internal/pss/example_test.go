package pss_test

import (
	"fmt"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/pss"
)

// Example walks the paper's three supply cases for a 3-server
// maximal-sprint demand (465 W) on the RE-Batt rack, then a demand the
// bank can carry for only part of the epoch, then a drained bank.
func Example() {
	bank, err := cluster.REBatt().NewBank()
	if err != nil {
		panic(err)
	}
	s := pss.New(bank)
	epoch := 5 * time.Minute
	const normal = 300 // grid-fed Normal-mode draw

	show := func(al pss.Allocation) { fmt.Printf("%v %.3f\n", al.Case, al.SprintFraction) }
	// Case 1: abundant green power; the surplus charges batteries.
	show(s.Allocate(465, 600, epoch, normal))
	// Case 2: green covers part of the demand; batteries supplement.
	show(s.Allocate(465, 300, epoch, normal))
	// Case 3: no green at all; batteries alone carry the sprint.
	show(s.Allocate(465, 0, epoch, normal))
	// The bank, drawn down by cases 2 and 3, holds a 1200 W shortfall
	// for a third of the epoch; the sprint ends there.
	show(s.Allocate(1500, 300, epoch, normal))
	// Exhausted: after draining the bank, only the grid remains.
	bank.Discharge(465, time.Hour)
	show(s.Allocate(465, 0, epoch, normal))
	// Output:
	// green-only 1.000
	// green+battery 1.000
	// battery-only 1.000
	// green+battery 0.329
	// grid-fallback 0.000
}
