package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// fleetOf returns the fleet a workload instance runs.
func fleetOf(t *testing.T, w string, seed uint64) *fleet {
	t.Helper()
	inst, err := newInstance(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := inst.(*cold); ok {
		return c.fleet
	}
	return inst.(*fleet)
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, b, c := fleetOf(t, w, 7), fleetOf(t, w, 7), fleetOf(t, w, 8)
		if !reflect.DeepEqual(a.scn.Requests, b.scn.Requests) {
			t.Errorf("%s: seed 7 generated two different scenarios", w)
		}
		if reflect.DeepEqual(a.scn.Requests, c.scn.Requests) {
			t.Errorf("%s: seeds 7 and 8 generated the same scenario", w)
		}
	}
	if !reflect.DeepEqual(newKernel(), newKernel()) {
		t.Error("kernel cells differ between two generations")
	}
}

// TestStratifiedInputs pins that seeds reorder a fixed multiset of
// request contents, which keeps a pass's cost nearly seed-independent.
func TestStratifiedInputs(t *testing.T) {
	contents := func(seed uint64) map[[3]int]int {
		m := map[[3]int]int{}
		for _, r := range fleetOf(t, "fleet_backlog", seed).scn.Requests {
			m[[3]int{r.PromptLen, r.DecodeTokens, int(r.ArrivalCycle)}]++
		}
		return m
	}
	if !reflect.DeepEqual(contents(1), contents(2)) {
		t.Error("fleet_backlog request multiset depends on the seed")
	}
	budget := func(seed uint64) int64 { return fleetOf(t, "cold", seed).scn.TotalTokens() }
	if budget(1) != budget(2) {
		t.Error("cold fleet decode budget depends on the seed")
	}
}

func TestCheckAcceptsStoredAndRejectsPerturbedKernel(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Kernel) != newKernel().ops() {
		t.Fatalf("expected.json has %d kernel cells, the kernel runs %d", len(e.Kernel), newKernel().ops())
	}
	cells := func() []cellResult {
		out := make([]cellResult, len(e.Kernel))
		for i, c := range e.Kernel {
			ctr := map[string]int64{}
			for k, v := range c.Counters {
				ctr[k] = v
			}
			out[i] = cellResult{Name: c.Name, Cycles: c.Cycles, Counters: ctr}
		}
		return out
	}
	if bad, problems := check(e, "cold", 1, &outcome{Cells: cells()}); bad != 0 {
		t.Fatalf("stored kernel results rejected: %v", problems)
	}
	perturb := map[string]func([]cellResult){
		"cycles":  func(c []cellResult) { c[3].Cycles++ },
		"counter": func(c []cellResult) { c[5].Counters["L2Hits"]-- },
		"missing": func(c []cellResult) { delete(c[7].Counters, "DRAMReads") },
		"renamed": func(c []cellResult) { c[0].Name += "x" },
	}
	for name, f := range perturb {
		got := cells()
		f(got)
		if bad, _ := check(e, "cold", 1, &outcome{Cells: got}); bad != 1 {
			t.Errorf("%s perturbation: %d failed cells, want 1", name, bad)
		}
	}
}

func TestCheckRejectsPerturbedFleet(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		want, ok := e.Fleets[w]["0"]
		if !ok {
			t.Fatalf("%s: no stored result for seed 0", w)
		}
		good := want
		if bad, problems := check(e, w, 0, &outcome{Fleet: &good}); bad != 0 {
			t.Errorf("%s: stored result rejected: %v", w, problems)
		}
		for _, f := range []func(*fleetResult){
			func(r *fleetResult) { r.Makespan++ },
			func(r *fleetResult) { r.Tokens-- },
			func(r *fleetResult) { r.FinishDigest = "0" + r.FinishDigest[1:] },
		} {
			got := want
			f(&got)
			if got == want {
				continue
			}
			if bad, _ := check(e, w, 0, &outcome{Fleet: &got}); bad != 1 {
				t.Errorf("%s: perturbed result %+v accepted", w, got)
			}
		}
		// A seed without a stored result is checked by conservation.
		other := fleetResult{Makespan: 1}
		if bad, _ := check(e, w, 1<<40, &outcome{Fleet: &other}); bad != 0 {
			t.Errorf("%s: unstored seed failed without a conservation problem", w)
		}
		if bad, _ := check(e, w, 1<<40, &outcome{Fleet: &other, conservation: []string{"lost"}}); bad != 1 {
			t.Errorf("%s: conservation problem accepted", w)
		}
	}
}

func TestFleetConservation(t *testing.T) {
	scn := cluster.Scenario{Requests: []cluster.Request{
		{Request: serving.Request{ID: 0, DecodeTokens: 2}},
		{Request: serving.Request{ID: 1, DecodeTokens: 3, ArrivalCycle: 5}},
	}}
	metrics := func() *cluster.Metrics {
		m := &cluster.Metrics{Tokens: 5, Makespan: 100}
		for i, r := range scn.Requests {
			rs := cluster.RequestStats{Node: i}
			rs.ID, rs.Tokens, rs.ArrivalCycle, rs.FinishCycle = r.ID, r.DecodeTokens, r.ArrivalCycle, 50+int64(i)
			m.PerRequest = append(m.PerRequest, rs)
		}
		return m
	}
	retire := func(ids ...int) []telemetry.Event {
		var evs []telemetry.Event
		for _, id := range ids {
			evs = append(evs, telemetry.Event{Kind: telemetry.KindRetire, Req: id})
		}
		return evs
	}
	if out := fleetOutcome(scn, metrics(), retire(0, 1)); len(out.conservation) != 0 {
		t.Fatalf("conserving run flagged: %v", out.conservation)
	}
	cases := map[string]func(m *cluster.Metrics) []telemetry.Event{
		"short tokens": func(m *cluster.Metrics) []telemetry.Event { m.PerRequest[1].Tokens--; m.Tokens--; return nil },
		"fleet tokens": func(m *cluster.Metrics) []telemetry.Event { m.Tokens++; return nil },
		"dropped":      func(m *cluster.Metrics) []telemetry.Event { m.PerRequest[0].Dropped = true; return nil },
		"late finish":  func(m *cluster.Metrics) []telemetry.Event { m.PerRequest[0].FinishCycle = 101; return nil },
		"lost result":  func(m *cluster.Metrics) []telemetry.Event { m.PerRequest = m.PerRequest[:1]; return nil },
		"double retire": func(m *cluster.Metrics) []telemetry.Event {
			return retire(0, 1, 1)
		},
		"no retire": func(m *cluster.Metrics) []telemetry.Event { return retire(0) },
	}
	for name, f := range cases {
		m := metrics()
		evs := f(m)
		if out := fleetOutcome(scn, m, evs); len(out.conservation) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
	a, b := fleetOutcome(scn, metrics(), nil), metrics()
	b.PerRequest[1].FinishCycle++
	if a.Fleet.FinishDigest == fleetOutcome(scn, b, nil).Fleet.FinishDigest {
		t.Error("finish digest ignores a completion cycle")
	}
}

// TestPassesMatchExpected runs real passes, so a simulator change that
// alters a result shows here as well as in the benchmark.
func TestPassesMatchExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := newInstance("cold", 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.pass(&layerTimes{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != newKernel().ops() || out.Fleet == nil {
		t.Fatalf("cold pass ran %d cells and fleet %v", len(out.Cells), out.Fleet)
	}
	if bad, problems := check(e, "cold", 0, out); bad != 0 {
		t.Errorf("%d failed operations: %v", bad, problems)
	}
}

func TestModulePackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/llc.(*Slice).Tick":          "llc",
		"repro/internal/arbiter.maPolicy.Select":    "arbiter",
		"repro.RunTrace":                            "llamcat",
		"main.run":                                  "perfbench",
		"runtime.mallocgc":                          "",
		"repro/internal/serving.(*Engine).stepOnce": "serving",
	} {
		if got := modulePackage(fn); got != want {
			t.Errorf("modulePackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			sink += float64(i) * 1.0000001
		}
	}
	pprof.StopCPUProfile()
	p := newCPUProfile()
	if err := p.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	var charged float64
	for _, v := range p.self {
		charged += v
	}
	if diff := charged - p.total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("self times sum to %v, total %v", charged, p.total)
	}
	if err := p.add([]byte("not a profile")); err == nil || !strings.Contains(err.Error(), "cpu profile") {
		t.Errorf("garbage profile: err = %v", err)
	}
}
