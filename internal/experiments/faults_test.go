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

func faultGridConfig() cluster.ScenarioConfig {
	return cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name: "faults/grid", Seed: 11, NumRequests: 10,
			Models:       []workload.ModelConfig{workload.Llama3_70B},
			MinPromptLen: 16, MaxPromptLen: 48,
			MinDecode: 2, MaxDecode: 4,
			MeanInterArrival: 10000, MaxBatch: 2,
			Sched: serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16, KVCapTokens: 200},
		},
		NumSessions: 4,
	}
}

// TestFaultGridParallelDeterminism: the MTBF × MTTR × recovery matrix
// returns bit-identical cells at worker widths 1 and GOMAXPROCS, the
// paired runs of each regime face the identical generated schedule,
// and the table renders every regime.
func TestFaultGridParallelDeterminism(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	mtbfs := []float64{120000, 400000}
	mttrs := []float64{60000}
	slo := serving.SLO{TTFTCycles: 600000}
	pol := cluster.Policy{Kind: cluster.LeastOutstanding}

	run := func(par int) *FaultGridResult {
		g, err := FaultGrid(faultGridConfig(), mtbfs, mttrs, 7, 3, 5000, 3, pol, DynMGBMA, slo,
			Options{Base: &base, Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range g.Metrics {
			for _, pair := range row {
				pair[0].StripStepCache()
				pair[1].StripStepCache()
			}
		}
		return g
	}
	serial := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Fatal("fault grid results depend on worker count")
	}

	var failures int64
	for i := range mtbfs {
		for j := range mttrs {
			re, dr := serial.Metrics[i][j][0], serial.Metrics[i][j][1]
			// Both recovery policies of a cell face the same generated
			// failures — identical incident counts and downtime schedules.
			if re.Failures != dr.Failures {
				t.Fatalf("cell [%d][%d]: recovery policies saw different schedules: %d vs %d failures",
					i, j, re.Failures, dr.Failures)
			}
			if re.Dropped != 0 {
				t.Fatalf("cell [%d][%d]: redispatch dropped %d requests", i, j, re.Dropped)
			}
			if re.Goodput(serial.SLO).SLO != slo || dr.Goodput(serial.SLO).SLO != slo {
				t.Fatalf("cell [%d][%d] judged under the wrong SLO", i, j)
			}
			failures += re.Failures
		}
	}
	if failures == 0 {
		t.Fatal("no generated regime produced a failure — grid parameters too gentle")
	}

	rendered := serial.Render()
	for _, want := range []string{"mtbf", "redispatch", "drop", "120000", "400000"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered grid missing %q:\n%s", want, rendered)
		}
	}
}

// TestFaultGridValidation: empty axes and invalid generator
// parameters fail loudly.
func TestFaultGridValidation(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	pol := cluster.Policy{Kind: cluster.LeastOutstanding}
	slo := serving.SLO{TTFTCycles: 600000}
	if _, err := FaultGrid(faultGridConfig(), nil, []float64{1000}, 7, 3, 0, 2, pol, DynMGBMA, slo, Options{Base: &base}); err == nil {
		t.Error("empty MTBF list accepted")
	}
	if _, err := FaultGrid(faultGridConfig(), []float64{1000}, nil, 7, 3, 0, 2, pol, DynMGBMA, slo, Options{Base: &base}); err == nil {
		t.Error("empty MTTR list accepted")
	}
	if _, err := FaultGrid(faultGridConfig(), []float64{0}, []float64{1000}, 7, 3, 0, 2, pol, DynMGBMA, slo, Options{Base: &base}); err == nil {
		t.Error("zero MTBF accepted")
	}
	if _, err := FaultGrid(faultGridConfig(), []float64{1000}, []float64{1000}, 7, 0, 0, 2, pol, DynMGBMA, slo, Options{Base: &base}); err == nil {
		t.Error("zero incident count accepted")
	}
	if _, err := FaultGrid(faultGridConfig(), []float64{1000}, []float64{1000}, 7, 3, -1, 2, pol, DynMGBMA, slo, Options{Base: &base}); err == nil {
		t.Error("negative detection latency accepted")
	}
}
