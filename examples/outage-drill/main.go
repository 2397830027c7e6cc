// Outage drill: a utility failure in the middle of a sprint.
//
// Figure 2's power hierarchy in action: the substation feed dies
// mid-burst, the ATS cranks the diesel generator (batteries bridge the
// ten-second gap — their classic UPS role), the generator carries the
// Normal-mode load, and the green bus keeps the green servers
// sprinting the whole time because renewable power never touches the
// dirty side.
//
//	go run ./examples/outage-drill
package main

import (
	"fmt"
	"log"

	"greensprint/internal/battery"
	"greensprint/internal/cluster"
	"greensprint/internal/core"
	"greensprint/internal/power"
	"greensprint/internal/server"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

func main() {
	app := workload.SPECjbb()
	green := cluster.REBatt()
	ctrl, err := core.New(core.Options{
		Workload:     app,
		Green:        green,
		StrategyName: "Hybrid",
	})
	if err != nil {
		log.Fatal(err)
	}
	pdu, err := power.NewPDU(power.DefaultATS())
	if err != nil {
		log.Fatal(err)
	}
	bridge, err := battery.NewClassBank([]battery.ClassSpec{
		{Config: battery.ServerBattery(), Count: cluster.DefaultServers},
	})
	if err != nil {
		log.Fatal(err)
	}

	sun := units.Watt(600) // a sunny afternoon on the 3-panel array
	rate := app.IntensityRate(12)
	epoch := ctrl.Epoch()

	fmt.Println("epoch  dirty-feed  dirty(W)  green(W)  green-servers  note")
	for e := 0; e < 8; e++ {
		note := ""
		switch e {
		case 3:
			pdu.ATS.FailUtility()
			note = "UTILITY FAILS: ATS cranks the diesel generator"
			// The crank gap is seconds; the per-server batteries
			// carry the whole cluster's Normal load through it.
			crank := power.DefaultATS().DieselStart
			took, err := bridge.Discharge(units.Watt(10*100), crank)
			if err != nil || took < crank {
				log.Fatalf("batteries failed to bridge the crank: %v %v", took, err)
			}
		case 6:
			pdu.ATS.RestoreUtility()
			note = "utility restored: ATS transfers back"
		}
		feed := pdu.Feed(sun, epoch)

		lastCfg := ctrl.Snapshot().Last.Config
		if !lastCfg.Valid() {
			lastCfg = server.Normal() // before the first decision
		}
		tel := core.Telemetry{
			GreenPower:  feed.Green,
			OfferedRate: rate,
			Goodput:     app.Goodput(lastCfg, rate),
			Latency:     app.Deadline * 0.8,
			ServerPower: app.LoadPower(lastCfg, rate),
		}
		d, err := ctrl.Step(tel)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %-10s  %8.0f  %8.0f  %-13s  %s\n",
			e, feed.Source, float64(feed.Dirty), float64(feed.Green), d.Config, note)
	}
	fmt.Println("\nthe green servers never stopped sprinting: the renewable bus is independent of the ATS")
}
