// Command pmsim runs a single workload on a single simulated machine —
// the unit of the bigger figure sweeps, handy for poking at one
// configuration.
//
// Usage:
//
//	pmsim -machine pm -bench matmult -n 201 -version transposed -cpus 2
//	pmsim -machine sun -bench hint -type int -intervals 100000
//	pmsim -machine pm -bench comm -n 8
//
// -version and -cpus apply to matmult only, -type and -intervals to
// hint only, and -n to matmult and comm; setting one where the chosen
// -bench ignores it is a usage error.
package main

import (
	"flag"
	"fmt"

	"powermanna"
	"powermanna/internal/cli"
)

func main() {
	c := cli.New("pmsim", 0)
	var (
		machineFlag = flag.String("machine", "pm", "pm, sun, pc180 or pc266")
		benchFlag   = flag.String("bench", "matmult", "matmult, hint or comm")
		n           = flag.Int("n", 201, "matrix size (matmult) or message bytes (comm)")
		versionFlag = flag.String("version", "transposed", "matmult version: naive or transposed")
		cpus        = flag.Int("cpus", 1, "processors to use (matmult)")
		typeFlag    = flag.String("type", "double", "hint data type: double or int")
		intervals   = flag.Int("intervals", 100000, "hint interval budget")
	)
	c.Parse()

	cfg, ok := powermanna.MachineByName(*machineFlag)
	if !ok {
		c.Check(fmt.Errorf("unknown machine %q", *machineFlag))
	}

	switch *benchFlag {
	case "matmult":
		c.NoEffect("with -bench matmult", "-type", "-intervals")
		versions := map[string]powermanna.MatMultVersion{"naive": powermanna.Naive, "transposed": powermanna.Transposed}
		v, ok := versions[*versionFlag]
		if !ok {
			c.Check(fmt.Errorf("unknown matmult version %q (want naive or transposed)", *versionFlag))
		}
		fmt.Println(powermanna.RunMatMult(powermanna.NewNode(cfg), *n, v, *cpus))

	case "hint":
		c.NoEffect("with -bench hint", "-n", "-version", "-cpus")
		types := map[string]powermanna.HintDataType{"double": powermanna.HintDouble, "int": powermanna.HintInt}
		dt, ok := types[*typeFlag]
		if !ok {
			c.Check(fmt.Errorf("unknown hint type %q (want double or int)", *typeFlag))
		}
		r := powermanna.RunHINT(powermanna.NewNode(cfg), dt, *intervals)
		fmt.Println(r)
		for _, p := range r.Points {
			fmt.Printf("  t=%-12v intervals=%-8d quality=%-12.4g QUIPS=%.4g\n",
				p.Time, p.Intervals, p.Quality, p.QUIPS)
		}

	case "comm":
		c.NoEffect("with -bench comm", "-version", "-cpus", "-type", "-intervals")
		if *machineFlag != "pm" && *machineFlag != "powermanna" {
			c.Check(fmt.Errorf("comm benchmark measures the PowerMANNA pair; use -machine pm"))
		}
		pm := powermanna.NewPowerMANNAComm()
		fmt.Printf("%s message size %d bytes:\n", pm.Name(), *n)
		fmt.Printf("  one-way latency: %v\n", pm.OneWayLatency(*n))
		fmt.Printf("  gap at saturation: %v\n", pm.Gap(*n))
		fmt.Printf("  unidirectional: %.1f MB/s\n", pm.UniBandwidth(*n)/1e6)
		fmt.Printf("  bidirectional (total): %.1f MB/s\n", pm.BiBandwidth(*n)/1e6)

	default:
		c.Check(fmt.Errorf("unknown benchmark %q", *benchFlag))
	}
}
