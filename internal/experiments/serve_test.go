package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/serving"
	"repro/internal/sim"
)

func serveTestScenario(t *testing.T) serving.Scenario {
	t.Helper()
	scn, err := serving.NewScenario(serving.ScenarioConfig{
		Name: "grid/test", Seed: 5, NumRequests: 4,
		MinPromptLen: 16, MaxPromptLen: 32,
		MinDecode: 2, MaxDecode: 2,
		MeanInterArrival: 4000, MaxBatch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestServeGridParallelDeterminism: the serving grid returns
// bit-identical metrics in matrix order at any worker count —
// extending the PR 1 parallel-determinism guarantee to the serving
// scenario.
func TestServeGridParallelDeterminism(t *testing.T) {
	scn := serveTestScenario(t)
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	policies := []Policy{Unopt, DynMG, DynMGBMA}

	serial, err := ServeGrid(scn, policies, Options{Base: &base, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ServeGrid(scn, policies, Options{Base: &base, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	// StepCache counters are diagnostics outside the bit-identity
	// contract (cells share the process-wide step memo).
	for _, m := range serial.Metrics {
		m.StripStepCache()
	}
	for _, m := range parallel.Metrics {
		m.StripStepCache()
	}
	if !reflect.DeepEqual(serial.Metrics, parallel.Metrics) {
		t.Fatal("serving grid results depend on worker count")
	}

	rendered := serial.Render()
	for _, p := range policies {
		if !strings.Contains(rendered, p.Label) {
			t.Fatalf("rendered grid missing policy %q:\n%s", p.Label, rendered)
		}
	}
}

// TestSchedLabel pins the scheduler labels both CLIs report.
func TestSchedLabel(t *testing.T) {
	for _, c := range []struct {
		sched serving.SchedulerConfig
		want  string
	}{
		{serving.SchedulerConfig{}, "decode-only"},
		{serving.SchedulerConfig{Policy: serving.SchedDecodeOnly, KVCapTokens: 2048}, "decode-only/kv2048"},
		{serving.SchedulerConfig{Policy: serving.SchedPrefillFirst, KVCapTokens: 2048}, "prefill-first/kv2048"},
		{serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16, KVCapTokens: 2048}, "chunked/16/kv2048"},
		{serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 64, KVCapTokens: 2048}, "chunked/64/kv2048"},
	} {
		if got := SchedLabel(c.sched); got != c.want {
			t.Errorf("SchedLabel(%+v) = %q, want %q", c.sched, got, c.want)
		}
	}
}
