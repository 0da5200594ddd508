package experiments

import (
	"fmt"

	"powermanna/internal/comm"
	"powermanna/internal/nic"
	"powermanna/internal/stats"
)

// SmartNI quantifies the paper's central interface argument (Sections
// 3.3 and 6): a CPU-driven memory-mapped link interface against a NIC on
// the I/O bus. Both eight-byte latency budgets are decomposed stage by
// stage: the PCI-NIC path carries a doorbell, an embedded processor
// twice, and a DMA into host memory — stages the PowerMANNA path simply
// does not have. The mechanistic NIC model is cross-validated against
// the published BIP numbers in its tests.
func SmartNI(Options) Result {
	const n = 8
	pm := comm.NewPowerMANNA()
	myri := nic.MyrinetPPro()
	if err := myri.Validate(); err != nil {
		panic(err)
	}

	tbl := &stats.Table{
		Title:   fmt.Sprintf("Latency budget for a %d-byte message (one way)", n),
		Columns: []string{"PowerMANNA stage", "time", "Myrinet-PCI stage", "time"},
	}
	pmStages := pm.LatencyBreakdown(n)
	nicStages := myri.Breakdown(n)
	rows := len(pmStages)
	if len(nicStages) > rows {
		rows = len(nicStages)
	}
	for i := 0; i < rows; i++ {
		var a, b, c, d string
		if i < len(pmStages) {
			a, b = pmStages[i].Name, pmStages[i].Time.String()
		}
		if i < len(nicStages) {
			c, d = nicStages[i].Name, nicStages[i].Time.String()
		}
		tbl.AddRow(a, b, c, d)
	}
	tbl.AddRow("TOTAL", pm.OneWayLatency(n).String(), "TOTAL", myri.OneWayLatency(n).String())

	ratio := float64(myri.OneWayLatency(n)) / float64(pm.OneWayLatency(n))
	return Result{
		ID:          "smartni",
		Description: "CPU-driven link interface vs PCI-attached NIC, stage by stage",
		Expected:    "the NIC path's doorbell, embedded processor and DMA stages make it ~2.3x slower for small messages (the paper's 6.4 vs 2.75 us)",
		Table:       tbl,
		Notes: []string{
			fmt.Sprintf("PCI-NIC / PowerMANNA latency ratio at %d bytes: %.2fx (paper: 2.33x)", n, ratio),
		},
	}
}
