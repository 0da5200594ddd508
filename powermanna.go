// Package powermanna is a deterministic architecture-simulation
// reproduction of "PowerMANNA: A Parallel Architecture Based on the
// PowerPC MPC620" (Behr, Pletner, Sodan — HPCA 2000).
//
// The paper describes a physical distributed-memory parallel computer:
// dual-MPC620 single-board nodes with a switched intra-node datapath (the
// ADSP bus switch driven by a central dispatcher), a duplicated
// crossbar-hierarchy interconnect with a lightweight CPU-driven network
// interface, and an evaluation against a SUN Ultra-I SMP node and a
// Pentium II / Myrinet cluster. This module rebuilds all of that as
// cycle-approximate models in pure Go and regenerates every table and
// figure of the paper's evaluation; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-versus-measured results.
//
// This package is the public facade: it re-exports the machine
// configurations, node and network simulators, benchmark kernels and
// experiment harness from the internal packages.
//
// Quick start:
//
//	nd := powermanna.NewNode(powermanna.PowerMANNA())
//	res := powermanna.RunMatMult(nd, 201, powermanna.Transposed, 2)
//	fmt.Println(res) // MFLOPS on both MPC620s
//
//	pm := powermanna.NewPowerMANNAComm()
//	fmt.Println(pm.OneWayLatency(8)) // ~2.75µs, the paper's headline
package powermanna

import (
	"fmt"

	"powermanna/internal/comm"
	"powermanna/internal/dispatch"
	"powermanna/internal/earth"
	"powermanna/internal/experiments"
	"powermanna/internal/heat"
	"powermanna/internal/hint"
	"powermanna/internal/machine"
	"powermanna/internal/matmult"
	"powermanna/internal/mpl"
	"powermanna/internal/netsim"
	"powermanna/internal/nic"
	"powermanna/internal/node"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// Time is simulated time in picoseconds.
type Time = sim.Time

// Node-level simulation types.
type (
	// NodeConfig describes one machine node (processors, caches, TLB,
	// fabric, memory).
	NodeConfig = node.Config
	// Node is an instantiated node simulator.
	Node = node.Node
	// Proc is one processor's handle on a node.
	Proc = node.Proc
)

// Machine configurations of the paper's Table 1.
var (
	// PowerMANNA returns the PowerMANNA node: 2× MPC620 @ 180 MHz, 2 MB
	// L2s with 64-byte lines, ADSP switched fabric, 640 MB/s interleaved
	// memory.
	PowerMANNA = machine.PowerMANNA
	// PowerMANNAWithCPUs scales the node to n processors (the Section 2
	// scalability ablation).
	PowerMANNAWithCPUs = machine.PowerMANNAWithCPUs
	// SunUltra returns the SUN ULTRA-I node: 2× UltraSPARC-I @ 168 MHz.
	SunUltra = machine.SunUltra
	// PentiumII returns the PC-cluster node at 180 or 266 MHz.
	PentiumII = machine.PentiumII
	// AllMachines returns the full Table 1 set.
	AllMachines = machine.All
	// Table1 renders the configuration table.
	Table1 = machine.Table1
)

// NewNode instantiates a node simulator from a configuration.
func NewNode(cfg NodeConfig) *Node { return node.New(cfg) }

// MachineByName resolves a short machine name — "pm"/"powermanna", "sun",
// "pc180", "pc266" — to its Table 1 configuration.
func MachineByName(name string) (NodeConfig, bool) {
	switch name {
	case "pm", "powermanna":
		return machine.PowerMANNA(), true
	case "sun":
		return machine.SunUltra(), true
	case "pc180":
		return machine.PentiumII(180), true
	case "pc266":
		return machine.PentiumII(266), true
	}
	return NodeConfig{}, false
}

// MatMult benchmark (Figures 7 and 8).
type (
	// MatMultVersion selects naive or transposed.
	MatMultVersion = matmult.Version
	// MatMultResult reports one run.
	MatMultResult = matmult.Result
)

// MatMult variants.
const (
	Naive      = matmult.Naive
	Transposed = matmult.Transposed
)

// RunMatMult executes C = A×B of size n on the first cpus processors of
// nd (reset first) and returns timing plus a functional checksum.
func RunMatMult(nd *Node, n int, v MatMultVersion, cpus int) MatMultResult {
	return matmult.Run(nd, n, v, cpus)
}

// HINT benchmark (Figure 6).
type (
	// HintDataType selects DOUBLE or INT arithmetic.
	HintDataType = hint.DataType
	// HintResult carries the QUIPS curve and the integral bounds.
	HintResult = hint.Result
)

// HINT variants.
const (
	HintDouble = hint.Double
	HintInt    = hint.Int
)

// RunHINT executes HINT on processor 0 of nd up to maxIntervals.
func RunHINT(nd *Node, dt HintDataType, maxIntervals int) HintResult {
	return hint.Run(nd, dt, maxIntervals)
}

// Communication system (Figures 9–12).
type (
	// CommSystem is a measurable communication system.
	CommSystem = comm.System
	// PMCommParams are the PowerMANNA driver/interface parameters.
	PMCommParams = comm.PMParams
)

var (
	// NewPowerMANNAComm builds the measured PowerMANNA pair (two nodes of
	// an eight-node cluster through one crossbar).
	NewPowerMANNAComm = comm.NewPowerMANNA
	// NewPowerMANNACommWith builds a pair with explicit parameters (FIFO
	// size and dual-link ablations).
	NewPowerMANNACommWith = comm.NewPowerMANNAWith
	// DefaultPMCommParams returns the calibrated parameter set.
	DefaultPMCommParams = comm.DefaultPMParams
	// BIP and FM return the paper's Myrinet user-space baselines.
	BIP = comm.BIP
	FM  = comm.FM
	// CommSizes returns the power-of-two payload sweep of the figures.
	CommSizes = comm.Sizes
)

// Interconnect topology and network simulation (Figure 5, Section 3).
type (
	// Topology is an assembled crossbar hierarchy.
	Topology = topo.Topology
	// Path is a source-routed connection (route bytes, hops).
	Path = topo.Path
	// Network is a runnable interconnect with wormhole transit timing.
	Network = netsim.Network
)

var (
	// Cluster8 builds the Figure 5a eight-node cabinet.
	Cluster8 = topo.Cluster8
	// System256 builds the Figure 5b 256-processor system.
	System256 = topo.System256
	// NewNetwork instantiates crossbars, wires and NIs over a topology.
	NewNetwork = netsim.New
)

// Network planes of the duplicated communication system.
const (
	NetworkA = topo.NetworkA
	NetworkB = topo.NetworkB
)

// Message-passing layer (the MPI role of Section 4).
type (
	// World is one SPMD program run over a simulated interconnect: one
	// rank per node, point-to-point messaging and binomial-tree
	// collectives.
	World = mpl.PWorld
	// Rank is one rank's handle, the argument of World.Run's function.
	Rank = mpl.PRank
)

var (
	// NewWorld builds a message-passing world, one rank per node, over
	// the given number of simulation shards (1 runs it serially). A
	// payload returned by Rank.Recv is valid until that rank's next
	// Recv, which recycles its buffer; a vector returned by
	// Rank.AllReduce or Rank.Bcast is valid until that rank's next
	// collective, which reuses it.
	NewWorld = mpl.NewPWorld
	// CollectiveDepth reports the binomial-tree depth over p ranks.
	CollectiveDepth = mpl.CriticalDepth
)

// EARTH-style fine-grain multithreading (Section 7, reference [18]).
type (
	// EarthSystem is an EARTH machine: fibers, sync slots and
	// split-phase tokens over the simulated interconnect.
	EarthSystem = earth.System
	// EarthParams are the runtime's calibrated cost constants.
	EarthParams = earth.Params
	// EarthCtx is a fiber's handle on the runtime. A node reuses one
	// for all its fibers, so a procedure's ctx and args are valid only
	// while its fiber runs.
	EarthCtx = earth.Ctx
)

var (
	// NewEarth builds an EARTH system over a topology.
	NewEarth = earth.New
	// DefaultEarthParams returns EARTH-MANNA-calibrated constants.
	DefaultEarthParams = earth.DefaultParams
	// RunEarthFib runs the classic EARTH Fibonacci benchmark.
	RunEarthFib = earth.RunFib
)

// SingleNode returns a one-node topology (for baseline comparisons).
func SingleNode() *Topology { return topo.New("single", 1) }

// Heat-equation application (the scientific-computing workload class the
// paper's introduction motivates).
type (
	// HeatConfig describes one heat-equation solve.
	HeatConfig = heat.Config
	// HeatResult reports a parallel solve.
	HeatResult = heat.Result
)

var (
	// HeatDefaultConfig returns a calibrated solver setup.
	HeatDefaultConfig = heat.DefaultConfig
	// RunHeatSerial computes the reference solution.
	RunHeatSerial = heat.RunSerial
	// RunHeat solves across all ranks of a message-passing world.
	RunHeat = heat.RunPart
)

// Dispatcher protocol engine (Section 2, Figures 2-3) and the PCI-NIC
// comparison path (Sections 3.3, 6).
type (
	// Dispatcher is the cycle-stepped protocol engine of the node's
	// central dispatcher.
	Dispatcher = dispatch.Dispatcher
	// DispatcherConfig describes a dispatcher build.
	DispatcherConfig = dispatch.Config
	// NICConfig is the mechanistic PCI-attached NIC path.
	NICConfig = nic.Config
)

var (
	// NewDispatcher builds a dispatcher protocol engine.
	NewDispatcher = dispatch.New
	// DefaultDispatcherConfig returns the PowerMANNA node's parameters.
	DefaultDispatcherConfig = dispatch.DefaultConfig
	// MyrinetPPro returns the reference NIC-behind-PCI configuration.
	MyrinetPPro = nic.MyrinetPPro
)

// Experiment harness: regenerate the paper's tables and figures.
type (
	// Experiment is one regenerated table or figure.
	Experiment = experiments.Result
	// ExperimentOptions tunes sweep sizes.
	ExperimentOptions = experiments.Options
)

var (
	// ExperimentIDs lists all experiment keys ("table1", "fig6a", ...).
	ExperimentIDs = experiments.IDs
	// AllExperiments runs the complete evaluation.
	AllExperiments = experiments.All
)

// RunExperiment regenerates one table or figure by ID.
func RunExperiment(id string, opt ExperimentOptions) (Experiment, error) {
	fn, ok := experiments.ByID(id)
	if !ok {
		return Experiment{}, fmt.Errorf("powermanna: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	return fn(opt), nil
}
