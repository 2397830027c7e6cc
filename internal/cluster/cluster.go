// Package cluster describes the GreenSprint testbed topology (§II,
// Figure 2): a 10-server rack behind a PDU with a grid feed sized for
// Normal-mode operation, plus an on-site PV array attached at the PDU
// level that powers a green-provisioned subset of the servers through
// a separate green bus, each green server carrying a server-level
// battery. The four green-provisioning options of Table I are provided
// as constructors.
package cluster

import (
	"fmt"

	"greensprint/internal/battery"
	"greensprint/internal/solar"
	"greensprint/internal/units"
)

// DefaultServers is the prototype cluster size.
const DefaultServers = 10

// GreenConfig is one row of Table I: how many servers ride the green
// bus, how many PV panels feed it, and the per-server battery size.
type GreenConfig struct {
	// Name is the Table I label.
	Name string
	// GreenServers is the number of servers on the green bus (30%
	// of the cluster for RE, 20% for SRE).
	GreenServers int
	// Panels is the PV array size (3 for RE = 635.25 W peak AC,
	// 2 for SRE = 423.5 W).
	Panels int
	// BatteryAh is the per-server battery capacity (0 = no battery).
	BatteryAh units.AmpHour
	// MaxDoD optionally overrides the battery depth-of-discharge
	// limit (0 = the paper's default of 0.40). Used by the
	// DoD-vs-lifetime ablation.
	MaxDoD float64
}

// REBatt is Table I "RE-Batt": 30% servers, 3 panels, 10 Ah.
func REBatt() GreenConfig {
	return GreenConfig{Name: "RE-Batt", GreenServers: 3, Panels: 3, BatteryAh: 10}
}

// REOnly is Table I "REOnly": 30% servers, 3 panels, no battery.
func REOnly() GreenConfig {
	return GreenConfig{Name: "REOnly", GreenServers: 3, Panels: 3, BatteryAh: 0}
}

// RESBatt is Table I "RE-SBatt": 30% servers, 3 panels, 3.2 Ah.
func RESBatt() GreenConfig {
	return GreenConfig{Name: "RE-SBatt", GreenServers: 3, Panels: 3, BatteryAh: 3.2}
}

// SRESBatt is Table I "SRE-SBatt": 20% servers, 2 panels, 3.2 Ah.
func SRESBatt() GreenConfig {
	return GreenConfig{Name: "SRE-SBatt", GreenServers: 2, Panels: 2, BatteryAh: 3.2}
}

// TableI returns the four green-provisioning options in paper order.
func TableI() []GreenConfig {
	return []GreenConfig{REBatt(), REOnly(), RESBatt(), SRESBatt()}
}

// ByName finds a Table I configuration.
func ByName(name string) (GreenConfig, error) {
	for _, g := range TableI() {
		if g.Name == name {
			return g, nil
		}
	}
	return GreenConfig{}, fmt.Errorf("cluster: unknown green config %q", name)
}

// Validate reports configuration errors.
func (g GreenConfig) Validate() error {
	switch {
	case g.GreenServers < 0:
		return fmt.Errorf("cluster %s: negative green servers", g.Name)
	case g.Panels < 0:
		return fmt.Errorf("cluster %s: negative panels", g.Name)
	case g.BatteryAh < 0:
		return fmt.Errorf("cluster %s: negative battery capacity", g.Name)
	case g.MaxDoD < 0 || g.MaxDoD > 1:
		return fmt.Errorf("cluster %s: MaxDoD %v outside [0,1]", g.Name, g.MaxDoD)
	}
	return nil
}

// Array returns the PV array feeding the green bus.
func (g GreenConfig) Array() solar.Array {
	return solar.Array{Panel: solar.DefaultPanel(), Panels: g.Panels}
}

// PeakGreen returns the array's peak AC output.
func (g GreenConfig) PeakGreen() units.Watt { return g.Array().PeakAC() }

// NewBank builds the per-server battery bank for the green servers: a
// one-class bank of GreenServers units. A zero BatteryAh yields an
// empty (never-supplying) bank.
func (g GreenConfig) NewBank() (*battery.ClassBank, error) {
	if g.BatteryAh == 0 || g.GreenServers == 0 {
		return battery.NewClassBank(nil)
	}
	cfg := battery.ServerBattery()
	cfg.Capacity = g.BatteryAh
	if g.MaxDoD > 0 {
		cfg.MaxDoD = g.MaxDoD
	}
	return battery.NewClassBank([]battery.ClassSpec{{Config: cfg, Count: g.GreenServers}})
}

// Cluster is the full rack.
type Cluster struct {
	// Servers is the total server count (10 in the prototype).
	Servers int
	// GridBudget is the PDU's grid feed, sized for Normal mode
	// (10 × 100 W = 1000 W in the paper).
	GridBudget units.Watt
	// Green is the green-provisioning option in effect.
	Green GreenConfig
}

// New creates the paper's prototype cluster under a Table I option.
func New(green GreenConfig) (*Cluster, error) {
	if err := green.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Servers:    DefaultServers,
		GridBudget: units.Watt(DefaultServers) * 100,
		Green:      green,
	}
	if green.GreenServers > c.Servers {
		return nil, fmt.Errorf("cluster: %d green servers exceed cluster size %d",
			green.GreenServers, c.Servers)
	}
	return c, nil
}

// GridServers returns the number of servers fed only by the grid.
func (c *Cluster) GridServers() int { return c.Servers - c.Green.GreenServers }

// GridHeadroomPerGridServer returns the grid power available to each
// grid-fed server during a sprint, when the whole grid budget is
// dedicated to them (§IV: "the grid can conservatively support the
// other 7 servers sprinting at sub-optimal performance").
func (c *Cluster) GridHeadroomPerGridServer() units.Watt {
	n := c.GridServers()
	if n == 0 {
		return 0
	}
	return units.Watt(float64(c.GridBudget) / float64(n))
}
