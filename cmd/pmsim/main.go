// Command pmsim runs a single workload on a single simulated machine —
// the unit of the bigger figure sweeps, handy for poking at one
// configuration.
//
// Usage:
//
//	pmsim -machine pm -bench matmult -n 201 -version transposed -cpus 2
//	pmsim -machine sun -bench hint -type int -intervals 100000
//	pmsim -machine pm -bench comm -n 8
package main

import (
	"flag"
	"fmt"
	"os"

	"powermanna"
)

func main() {
	var (
		machineFlag = flag.String("machine", "pm", "pm, sun, pc180 or pc266")
		benchFlag   = flag.String("bench", "matmult", "matmult, hint or comm")
		n           = flag.Int("n", 201, "matrix size (matmult) or message bytes (comm)")
		versionFlag = flag.String("version", "transposed", "matmult version: naive or transposed")
		cpus        = flag.Int("cpus", 1, "processors to use (matmult)")
		typeFlag    = flag.String("type", "double", "hint data type: double or int")
		intervals   = flag.Int("intervals", 100000, "hint interval budget")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pmsim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	cfg, ok := powermanna.MachineByName(*machineFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machineFlag)
		os.Exit(1)
	}

	switch *benchFlag {
	case "matmult":
		v := powermanna.Transposed
		if *versionFlag == "naive" {
			v = powermanna.Naive
		}
		nd := powermanna.NewNode(cfg)
		fmt.Println(powermanna.RunMatMult(nd, *n, v, *cpus))

	case "hint":
		dt := powermanna.HintDouble
		if *typeFlag == "int" {
			dt = powermanna.HintInt
		}
		nd := powermanna.NewNode(cfg)
		r := powermanna.RunHINT(nd, dt, *intervals)
		fmt.Println(r)
		for _, p := range r.Points {
			fmt.Printf("  t=%-12v intervals=%-8d quality=%-12.4g QUIPS=%.4g\n",
				p.Time, p.Intervals, p.Quality, p.QUIPS)
		}

	case "comm":
		if *machineFlag != "pm" && *machineFlag != "powermanna" {
			fmt.Fprintln(os.Stderr, "comm benchmark measures the PowerMANNA pair; use -machine pm")
			os.Exit(1)
		}
		pm := powermanna.NewPowerMANNAComm()
		fmt.Printf("%s message size %d bytes:\n", pm.Name(), *n)
		fmt.Printf("  one-way latency: %v\n", pm.OneWayLatency(*n))
		fmt.Printf("  gap at saturation: %v\n", pm.Gap(*n))
		fmt.Printf("  unidirectional: %.1f MB/s\n", pm.UniBandwidth(*n)/1e6)
		fmt.Printf("  bidirectional (total): %.1f MB/s\n", pm.BiBandwidth(*n)/1e6)

	default:
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *benchFlag)
		os.Exit(1)
	}
}
