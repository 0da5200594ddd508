// Package cli is the command-line contract shared by every simulator
// tool but pmlint: the --seed, --engine, --shards and --topo flags, and
// the way a command ends when its arguments are wrong.
//
// A usage error prints "<cmd>: <why>" and the usage text on stderr and
// exits 2. It covers a positional argument (no tool takes one), --shards
// N > 0 without --engine par, and a flag set explicitly in a mode that
// ignores it. A run-time error prints "<cmd>: <err>" on stderr and exits
// 1. Either way nothing reaches stdout, which stays the results channel.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"powermanna/internal/psim"
	"powermanna/internal/topo"
)

// Shared selects the shared flags a command declares.
type Shared uint8

// The shared flags; combine them with |.
const (
	// Seed declares --seed, the seed of every random stream (default 1).
	Seed Shared = 1 << iota
	// Engine declares --engine, parsed by psim.ParseKind.
	Engine
	// Shards declares --engine and --shards, a psim shard count that
	// must come with --engine par when positive.
	Shards
	// Topo declares --topo, resolved by topo.ByName (default cluster8).
	Topo
	// WorkloadTopo declares --topo like Topo, but left unset it leaves
	// Command.Topo nil, so the workload picks its own topology.
	WorkloadTopo
)

// Command is one tool's side of the contract: New declares the shared
// flags, Parse fills in the exported fields.
type Command struct {
	Seed   int64
	Engine psim.Kind
	Shards int
	Topo   *topo.Topology // nil only under WorkloadTopo with --topo unset

	name   string
	engine *string
	topo   *string
	set    map[string]bool
}

// New declares the shared flags of command name on the default flag set.
func New(name string, shared Shared) *Command {
	c := &Command{name: name}
	if shared&Seed != 0 {
		flag.Int64Var(&c.Seed, "seed", 1, "seed for every random stream (arrivals, workload schedule, fault placement)")
	}
	if shared&(Engine|Shards) != 0 {
		c.engine = flag.String("engine", "seq", "event engine: seq, or par to run on internal/psim shards (byte-identical output)")
	}
	if shared&Shards != 0 {
		flag.IntVar(&c.Shards, "shards", 0, "psim shard count under --engine par (0 = 1; must align with the topology's leaf groups)")
	}
	switch {
	case shared&Topo != 0:
		c.topo = flag.String("topo", "cluster8", "topology: cluster8 or system256")
	case shared&WorkloadTopo != 0:
		c.topo = flag.String("topo", "", "topology: cluster8 or system256 (default per workload)")
	}
	return c
}

// Parse parses the command line, applies the shared checks and fills in
// the exported fields; it exits on a usage or value error.
func (c *Command) Parse() {
	flag.Parse()
	if flag.NArg() > 0 {
		c.Usagef("unexpected argument %q", flag.Arg(0))
	}
	c.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	var err error
	if c.engine != nil {
		c.Engine, err = psim.ParseKind(*c.engine)
		c.Check(err)
	}
	if c.Shards > 0 && c.Engine != psim.Par {
		c.Usagef("--shards %d requires --engine par", c.Shards)
	}
	if c.topo != nil && (*c.topo != "" || c.Set("topo")) {
		c.Topo, err = topo.ByName(*c.topo)
		c.Check(err)
	}
}

// Set reports whether flag name (leading dashes ignored) was set
// explicitly on the command line.
func (c *Command) Set(name string) bool { return c.set[strings.TrimLeft(name, "-")] }

// NoEffect rejects the first of flags set explicitly as a usage error:
// the command ignores them in its mode ("with --traffic"). Name each
// flag with the dashes the tool documents it with.
func (c *Command) NoEffect(mode string, flags ...string) {
	for _, f := range flags {
		if c.Set(f) {
			c.Usagef("%s has no effect %s", f, mode)
		}
	}
}

// Alone rejects, as a usage error, flag f set together with any other
// flag; call it in the mode f selects.
func (c *Command) Alone(f string) {
	if c.Set(f) && len(c.set) > 1 {
		c.Usagef("%s takes no other flag", f)
	}
}

// Usagef prints "<cmd>: <message>" and the usage text on stderr and
// exits 2.
func (c *Command) Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", c.name, fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// Check prints "<cmd>: <err>" on stderr and exits 1 if err is not nil.
func (c *Command) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		os.Exit(1)
	}
}
