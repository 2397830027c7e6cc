package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testHooks are exported internal/ symbols that only tests reach, kept
// on purpose. Each is a state accessor a test inspects, a reference
// implementation a test compares shipped code against, or a paper
// check. Keyed as pkg.Func, pkg.Type or pkg.Type.Method.
var testHooks = map[string]string{
	"battery.Battery.Config":             "state accessor: a unit's configuration",
	"battery.Battery.DoD":                "state accessor: a unit's depth of discharge",
	"battery.Battery.Resistance":         "state accessor: a unit's chaos-degraded resistance",
	"battery.ClassBank.Groups":           "state accessor: the bank's run-length grouping",
	"battery.ClassBank.Reset":            "state accessor: refills a bank between cases",
	"battery.ClassBank.Unit":             "state accessor: one unit of a class bank",
	"battery.SmallServerBattery":         "paper check: Table I's 3.2 Ah SBatt unit",
	"chaos.Injector.BreakerForced":       "state accessor: the nuisance-trip hold",
	"config.Config.Write":                "round-trip partner of config.Load for the daemon's config file",
	"experiments.ClusterWide":            "paper check: §IV cluster-wide sprinting",
	"experiments.SeedSensitivity":        "paper check: §IV seed sensitivity",
	"experiments.SubOptimalGridConfigs":  "paper check: §IV sub-optimal grid configurations",
	"fleet.Topology.ZoneMembers":         "state accessor: each zone's server indices",
	"pmk.ClassFleet.Current":             "state accessor: one server's knob setting",
	"pmk.ClassFleet.Detached":            "state accessor: detached-server census",
	"pmk.ClassFleet.Transitions":         "state accessor: knob transition count",
	"predictor.EWMA.Alpha":               "state accessor: the smoothing factor",
	"predictor.EWMA.Primed":              "state accessor: whether an observation has arrived",
	"profile.ReadJSON":                   "input reader for the file greensprint-profile writes",
	"queueing.SimResult.Percentile":      "reference: the DES side of the DES-versus-closed-form pair",
	"queueing.Station.Metrics":           "reference: the closed-form side of the DES-versus-closed-form pair",
	"rl.Table.Q":                         "state accessor: one Q value, for convergence checks",
	"server.PowerModel.PeakPower":        "paper check: the 155/156/146 W peak calibration",
	"sim.Engine.Epoch":                   "state accessor: the engine's epoch counter",
	"sim.Engine.Rack":                    "state accessor: the engine's rack",
	"sim.Engine.Topology":                "state accessor: the engine's class topology",
	"tco.Model.Validate":                 "paper check: the default cost model is well formed",
	"trace.Trace.End":                    "state accessor: the instant past the last sample",
	"trace.Trace.Integral":               "reference: the energy-conservation check in sim tests",
	"trace.Trace.Slice":                  "test fixture: a sub-day window of a generated trace",
	"units.Amp.Power":                    "conversion the battery Peukert tests state rates in",
	"units.NearlyEqual":                  "tolerance comparison shared by the model tests",
	"units.WattHour.Charge":              "conversion the battery tests state charge in",
	"workload.Profile.LatencyPercentile": "reference: the kernel bit-identity tests compare against it",
}

// TestNoTestOnlyExports fails when an exported function, method or
// type in internal/ has no use in non-test code anywhere in the
// repository (cmd/, examples/, perfbench/ and the facade count as
// users). Such code is a second copy of a decision the shipped loops
// make elsewhere, or dead surface; delete it, or list it in testHooks
// with the reason a test needs it. A method counts as used when it
// satisfies a method of an interface declared in the module or in a
// package the module imports (String for fmt.Stringer, Import for
// types.Importer).
func TestNoTestOnlyExports(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interfaces a method can satisfy: every named interface in the
	// module and the packages it imports, plus the unnamed one through
	// which errors.Is and errors.As call Unwrap.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			collect(imp)
		}
	}
	for _, p := range pkgs {
		collect(p.Types)
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "", errType)), false))
	ifaces = append(ifaces, errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())

	// A use is any reference from non-test code except a method's own
	// receiver, which would make every type with methods look used.
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		recvIdents := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recvIdents[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.Info.Uses {
			if recvIdents[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		// Methods, promoted ones included, that implement an interface.
		for _, name := range p.Types.Scope().Names() {
			tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, p.Types, it.Method(i).Name())
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin()] = true
					}
				}
			}
		}
	}

	var unused []string
	hooks := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, ModulePath+"/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				var idents []*ast.Ident
				switch d := decl.(type) {
				case *ast.FuncDecl:
					idents = append(idents, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							idents = append(idents, ts.Name)
						}
					}
				}
				for _, id := range idents {
					obj := p.Info.Defs[id]
					if obj == nil || !obj.Exported() || used[obj] {
						continue
					}
					key := p.Types.Name() + "." + id.Name
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							named := recv.Type()
							if ptr, ok := named.(*types.Pointer); ok {
								named = ptr.Elem()
							}
							key = p.Types.Name() + "." + named.(*types.Named).Obj().Name() + "." + id.Name
						}
					}
					if _, ok := testHooks[key]; ok {
						hooks[key] = true
						continue
					}
					pos := p.Fset.Position(id.Pos())
					unused = append(unused, pos.Filename+": "+key)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but only tests use it: %s", u)
	}
	var stale []string
	for key := range testHooks {
		if !hooks[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("testHooks lists %s, which is gone or has a non-test use", key)
	}
}
