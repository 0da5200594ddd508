// Engine benchmarks: the same System256 campaigns under the sequential
// scheduler and the sharded engine. Run with -cpu 1,2,4,8 to see the
// parallel sweep scale — each degradation row is one shard, so the
// ceiling is the row count.
package psim_test

import (
	"testing"

	"powermanna/internal/fault"
	"powermanna/internal/psim"
	"powermanna/internal/sim"
	"powermanna/internal/topo"
)

// benchCampaign runs the link-cut sweep on the 256-processor system —
// the configuration the acceptance speedup is measured on.
func benchCampaign(b *testing.B, engine psim.Kind) {
	b.Helper()
	c, ok := fault.CampaignByName("link-cut")
	if !ok {
		b.Fatal("no link-cut campaign")
	}
	opt := fault.Options{Seed: 1, Topology: topo.System256(), Engine: engine}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.Run(c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSendSystem256(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchCampaign(b, psim.Seq) })
	b.Run("par", func(b *testing.B) { benchCampaign(b, psim.Par) })
}

// benchAppCampaign runs the heat-diffusion app campaign on the default
// cluster: a real MPL workload per row, so the rows are heavier and the
// sweep amortises the barrier better.
func benchAppCampaign(b *testing.B, engine psim.Kind) {
	b.Helper()
	c, ok := fault.AppCampaignByName("heat-linkcut")
	if !ok {
		b.Fatal("no heat-linkcut campaign")
	}
	opt := fault.Options{Seed: 1, Engine: engine}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.RunApp(c, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeatCampaign(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchAppCampaign(b, psim.Seq) })
	b.Run("par", func(b *testing.B) { benchAppCampaign(b, psim.Par) })
}

// BenchmarkShardStep is one At plus one Step on a shard holding 4096
// pending events: the per-event cost of the shard heap, for comparison
// with internal/sim's scheduler (the ledger's sim.step_ns).
func BenchmarkShardStep(b *testing.B) {
	sh := psim.NewEngine(1, 0).Shard(0)
	fn := func() {}
	x := uint64(1)
	next := func() sim.Time {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return sim.Time(x % 1_000_000)
	}
	for i := 0; i < 4096; i++ {
		sh.At(next(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.At(sh.Now()+next(), fn)
		sh.Step()
	}
}

// tickEngine builds a DefaultLookahead engine in which each of the
// first active shards dispatches one event per window for rounds
// windows. With more than one active shard every tick also posts a
// cross-shard event to the next active shard, so each round hands off
// and merges. The model allocates nothing once built.
func tickEngine(shards, active, rounds int) *psim.Engine {
	la := psim.DefaultLookahead()
	eng := psim.NewEngine(shards, la)
	noop := func() {}
	for i := 0; i < active; i++ {
		sh := eng.Shard(i)
		dst := (i + 1) % active
		n := 0
		var tick func()
		tick = func() {
			n++
			if n >= rounds {
				return
			}
			if dst != i {
				eng.PostPayload(i, dst, sh.Now()+la, psim.RunFunc, noop)
			}
			sh.At(sh.Now()+la, tick)
		}
		sh.At(0, tick)
	}
	return eng
}

// BenchmarkParallelRound is the cost of one barrier round of a parallel
// 2-shard Run — status publish, barrier, window pick, inbox merge and
// dispatch — with one event per active shard, so the round's
// synchronisation dominates. In both-active each shard's event posts to
// the other, so both goroutines merge and dispatch every round; in
// one-active shard 1 is idle, and its goroutine only meets shard 0 at
// the barrier.
func BenchmarkParallelRound(b *testing.B) {
	for _, bc := range []struct {
		name   string
		active int
	}{{"both-active", 2}, {"one-active", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := tickEngine(2, bc.active, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}
