package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/sim"
)

func clusterTestScenario(t *testing.T) cluster.Scenario {
	t.Helper()
	scn, err := cluster.NewScenario(cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "grid/test", Seed: 5, NumRequests: 6,
			MinPromptLen: 16, MaxPromptLen: 32,
			MinDecode: 2, MaxDecode: 2,
			MeanInterArrival: 4000, MaxBatch: 2,
		},
		NumSessions: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestClusterGridParallelDeterminism: the router × node-count matrix
// returns bit-identical fleet metrics in matrix order at any worker
// count — the two nested levels of parallelism (cells on the pool,
// node engines inside each cell) never change a number.
func TestClusterGridParallelDeterminism(t *testing.T) {
	scn := clusterTestScenario(t)
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	nodeCounts := []int{1, 2}
	routers := []cluster.Policy{{Kind: cluster.RoundRobin}, {Kind: cluster.SessionAffinity}}

	serial, err := ClusterGrid(scn, nodeCounts, routers, DynMGBMA, cluster.OverloadConfig{}, cluster.FaultConfig{}, Options{Base: &base, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ClusterGrid(scn, nodeCounts, routers, DynMGBMA, cluster.OverloadConfig{}, cluster.FaultConfig{}, Options{Base: &base, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// StepCache counters are diagnostics outside the bit-identity
	// contract (cells share the process-wide step memo).
	for _, row := range serial.Metrics {
		for _, m := range row {
			m.StripStepCache()
		}
	}
	for _, row := range parallel.Metrics {
		for _, m := range row {
			m.StripStepCache()
		}
	}
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Fatal("cluster grid results depend on worker count")
	}

	rendered := serial.Render()
	for _, r := range routers {
		if !strings.Contains(rendered, r.String()) {
			t.Fatalf("rendered grid missing router %q:\n%s", r, rendered)
		}
	}
	if !strings.Contains(rendered, DynMGBMA.Label) {
		t.Fatalf("rendered grid missing cache policy label:\n%s", rendered)
	}
}
