package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

func prefixGridConfig() cluster.ScenarioConfig {
	return cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "prefix/grid", Seed: 13, NumRequests: 8,
			Models:       []workload.ModelConfig{workload.Llama3_70B},
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 60000, MaxBatch: 2,
			SessionDepth: 3,
			Sched:        serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16},
		},
	}
}

// TestPrefixGridParallelDeterminism: the sessions × cache × router
// matrix returns bit-identical cells at worker widths 1 and
// GOMAXPROCS — the TTFT-vs-router curves cannot depend on -parallel.
// Plus shape/sanity checks: cache-off cells report zero prefix
// activity, cache-on affinity cells actually hit, and the rendered
// table names every router.
func TestPrefixGridParallelDeterminism(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	sessions := []int{2, 4}
	caches := []int64{0, 4096}
	routers := []cluster.Policy{{Kind: cluster.SessionAffinity}, {Kind: cluster.PrefixAffinity}}

	run := func(par int) *PrefixGridResult {
		g, err := PrefixGrid(prefixGridConfig(), sessions, caches, routers, 2, DynMGBMA,
			Options{Base: &base, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, plane := range g.Metrics {
			for _, row := range plane {
				for _, m := range row {
					m.StripStepCache()
				}
			}
		}
		return g
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Fatal("prefix grid results depend on worker count")
	}

	sawHit := false
	for i, s := range sessions {
		for j, c := range caches {
			for k, rt := range routers {
				m := serial.Metrics[i][j][k]
				if m.Requests != 8 {
					t.Fatalf("cell s%d/c%d/%s served %d requests", s, c, rt, m.Requests)
				}
				if c == 0 && (m.PrefixHits != 0 || m.PrefixMisses != 0 || m.PrefillTokensSaved != 0) {
					t.Fatalf("cache-off cell s%d/%s reported prefix activity: %d/%d/%d",
						s, rt, m.PrefixHits, m.PrefixMisses, m.PrefillTokensSaved)
				}
				if c > 0 && m.PrefixHits > 0 {
					sawHit = true
				}
			}
		}
	}
	if !sawHit {
		t.Fatal("no cache-on cell hit the prefix cache — the grid exercises no reuse")
	}

	rendered := serial.Render()
	for _, rt := range routers {
		if !strings.Contains(rendered, rt.String()) {
			t.Fatalf("render omits router %s:\n%s", rt, rendered)
		}
	}
}
