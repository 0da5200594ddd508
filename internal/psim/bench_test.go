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
