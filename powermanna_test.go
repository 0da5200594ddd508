package powermanna_test

import (
	"math"
	"strings"
	"testing"

	"powermanna"
)

func TestFacadeMachines(t *testing.T) {
	if len(powermanna.AllMachines()) != 4 {
		t.Error("AllMachines should return 4 configs")
	}
	if !strings.Contains(powermanna.Table1(), "PowerMANNA") {
		t.Error("Table1 missing PowerMANNA")
	}
	nd := powermanna.NewNode(powermanna.PowerMANNA())
	if len(nd.Procs()) != 2 {
		t.Error("PowerMANNA node must have two processors")
	}
}

func TestFacadeMatMult(t *testing.T) {
	nd := powermanna.NewNode(powermanna.PowerMANNA())
	r := powermanna.RunMatMult(nd, 17, powermanna.Transposed, 2)
	if r.MFLOPS() <= 0 {
		t.Error("no MFLOPS")
	}
	if r.CPUs != 2 || r.N != 17 {
		t.Errorf("result metadata wrong: %+v", r)
	}
}

func TestFacadeHINT(t *testing.T) {
	nd := powermanna.NewNode(powermanna.SunUltra())
	r := powermanna.RunHINT(nd, powermanna.HintInt, 2000)
	if r.PeakQUIPS <= 0 {
		t.Error("no QUIPS")
	}
	truth := 2*math.Log(2) - 1
	if r.Lower > truth || r.Upper < truth {
		t.Errorf("bounds [%g, %g] exclude the integral", r.Lower, r.Upper)
	}
}

func TestFacadeComm(t *testing.T) {
	pm := powermanna.NewPowerMANNAComm()
	l := pm.OneWayLatency(8)
	if l.Micros() < 2.5 || l.Micros() > 3.0 {
		t.Errorf("latency(8B) = %v", l)
	}
	if powermanna.BIP().Name() != "BIP" || powermanna.FM().Name() != "FM" {
		t.Error("baseline names wrong")
	}
	if len(powermanna.CommSizes(4, 64)) != 5 {
		t.Error("CommSizes wrong")
	}
}

func TestFacadeTopology(t *testing.T) {
	net := powermanna.NewNetwork(powermanna.System256())
	path, err := net.Topology().Route(0, 100, powermanna.NetworkB)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Hops) == 0 || len(path.Hops) > 3 {
		t.Errorf("hops = %d", len(path.Hops))
	}
	tr, err := net.Send(0, path, 64)
	if err != nil || tr.LastByte <= 0 {
		t.Errorf("transit failed: %v %v", tr, err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := powermanna.ExperimentIDs()
	if len(ids) != 19 {
		t.Errorf("experiment count = %d, want 19", len(ids))
	}
	r, err := powermanna.RunExperiment("table1", powermanna.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Render(), "MPC620") {
		t.Error("table1 render missing MPC620")
	}
	if _, err := powermanna.RunExperiment("bogus", powermanna.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"pm", "powermanna", "sun", "pc180", "pc266"} {
		cfg, ok := powermanna.MachineByName(name)
		if !ok || cfg.CPUs != 2 {
			t.Errorf("MachineByName(%q) = %+v, %v", name, cfg.Name, ok)
		}
	}
	if _, ok := powermanna.MachineByName("cray"); ok {
		t.Error("unknown machine resolved")
	}
}

func TestFacadeDispatcherAndNIC(t *testing.T) {
	d := powermanna.NewDispatcher(powermanna.DefaultDispatcherConfig(), nil)
	d.Submit(0, 0, 0x40)
	if _, ok := d.RunUntilIdle(1000); !ok {
		t.Error("dispatcher did not drain")
	}
	m := powermanna.MyrinetPPro()
	if m.OneWayLatency(8).Micros() < 4 {
		t.Error("NIC path implausibly fast")
	}
}

func TestFacadeHeatAndEarth(t *testing.T) {
	w, err := powermanna.NewWorld(powermanna.Cluster8(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := powermanna.RunHeat(w, powermanna.HeatDefaultConfig(256, 10))
	if err != nil || res.Ranks != 8 {
		t.Errorf("heat: %v %v", res.Ranks, err)
	}
	es := powermanna.NewEarth(powermanna.Cluster8(), powermanna.DefaultEarthParams())
	v, _, err := powermanna.RunEarthFib(es, 10)
	if err != nil {
		t.Fatalf("fib: %v", err)
	}
	if v != 55 {
		t.Errorf("fib(10) = %d", v)
	}
}
