package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	llamcat "repro"
	"repro/internal/cluster"
	"repro/internal/hwprof"
	"repro/internal/memtrace"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"cold", "fleet_backlog"}

// instance is one workload's generated inputs, ready to run timed passes.
type instance interface {
	// pass runs one timed pass from empty caches. The layer timers in
	// lt, when non-nil, accumulate the time spent in each public call.
	pass(lt *layerTimes) (*outcome, error)
	// ops is how many operations one pass counts (kernel cells or one
	// fleet pass).
	ops() int
}

// layerTimes accumulates host seconds spent inside the public calls the
// benchmark makes into each layer during one traced pass.
type layerTimes struct {
	traceS, simS, clusterS float64
}

// outcome is what one pass simulated: the results the output check
// compares and the work counts that must repeat from pass to pass.
type outcome struct {
	Cells []cellResult `json:"cells,omitempty"`
	Fleet *fleetResult `json:"fleet,omitempty"`
	Work  workCounts   `json:"-"`
	// conservation holds the per-request accounting a fleet pass must
	// satisfy whatever its seed; empty for kernel passes.
	conservation []string
}

// cellResult is one kernel cell's simulated outcome.
type cellResult struct {
	Name     string           `json:"name"`
	Cycles   int64            `json:"cycles"`
	Counters map[string]int64 `json:"counters"`
}

// fleetResult is one fleet pass's simulated outcome.
type fleetResult struct {
	Makespan int64 `json:"makespan"`
	Tokens   int64 `json:"tokens"`
	// FinishDigest is an FNV-64a digest of every request's (ID,
	// FinishCycle) pair in ID order.
	FinishDigest string `json:"finish_digest"`
}

// workCounts is the work a pass did. Every count is a pure function of
// the inputs when a pass starts from empty caches on one worker, so the
// counts repeat exactly from pass to pass and from run to run.
type workCounts struct {
	SimCycles      int64 // simulated cycles in the results
	L2Accesses     int64
	TraceInsts     int64 // trace lines generated by dataflow calls
	MemoHits       int64
	MemoMisses     int64
	OpCacheMisses  int64
	SimResets      int64
	Steps          int64
	Requests       int64
	TelemetryEvent int64
}

func (w *workCounts) add(o workCounts) {
	w.SimCycles += o.SimCycles
	w.L2Accesses += o.L2Accesses
	w.TraceInsts += o.TraceInsts
	w.MemoHits += o.MemoHits
	w.MemoMisses += o.MemoMisses
	w.OpCacheMisses += o.OpCacheMisses
	w.SimResets += o.SimResets
	w.Steps += o.Steps
	w.Requests += o.Requests
	w.TelemetryEvent += o.TelemetryEvent
}

// cold is everything that simulates from empty caches: the kernel cells,
// then the session fleet on a fresh step memo. One pass runs both, so a
// run measures both for its whole length.
type cold struct {
	kernel *kernel
	fleet  *fleet
}

func newCold(seed uint64) (*cold, error) {
	f, err := newFleetCold(seed)
	if err != nil {
		return nil, err
	}
	return &cold{kernel: newKernel(), fleet: f}, nil
}

func (c *cold) ops() int { return c.kernel.ops() + c.fleet.ops() }

func (c *cold) pass(lt *layerTimes) (*outcome, error) {
	out, err := c.kernel.pass(lt)
	if err != nil {
		return nil, err
	}
	f, err := c.fleet.pass(lt)
	if err != nil {
		return nil, err
	}
	out.Fleet, out.conservation = f.Fleet, f.conservation
	out.Work.add(f.Work)
	return out, nil
}

// newInstance generates the named workload's inputs from seed.
func newInstance(name string, seed uint64) (instance, error) {
	switch name {
	case "cold":
		return newCold(seed)
	case "fleet_backlog":
		return newFleetBacklog(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// paperPolicies are the eight (throttle, arbiter) points of Fig. 7.
var paperPolicies = []struct {
	label string
	pol   llamcat.Policy
}{
	{"unopt", llamcat.PolicyUnopt},
	{"dyncta", llamcat.PolicyDyncta},
	{"lcs", llamcat.PolicyLCS},
	{"dynmg", llamcat.PolicyDynMG},
	{"dynmg+cobrra", llamcat.Policy{Throttle: "dynmg", Arbiter: llamcat.PolicyCobrra.Arbiter}},
	{"dynmg+B", llamcat.PolicyDynMGB},
	{"dynmg+MA", llamcat.PolicyDynMGMA},
	{"dynmg+BMA", llamcat.PolicyDynMGBMA},
}

// kernelOp is one single-operator trace of the kernel workload, run
// under every paper policy.
type kernelOp struct {
	regime string // "fig7" (MSHR-bound) or "fig9" (cache-limited)
	av     bool
	model  workload.ModelConfig
	seq    int
	l2     int
}

func (o kernelOp) name() string {
	op := "logit"
	if o.av {
		op = "av"
	}
	return fmt.Sprintf("%s/%s/%s/seq%d", o.regime, op, o.model.Name, o.seq)
}

// kernel is the paper's own workload: single-operator cells in the two
// regimes of the evaluation. Fig. 7 runs 8K-token contexts on the Table 5
// L2 (MSHR-bound); Fig. 9 runs 32K-token contexts on its smallest, 16 MB
// L2 (cache-limited). Sequence lengths and L2 sizes are divided by one
// scale per regime, which keeps the working-set-to-cache ratio.
type kernel struct{ traces []kernelOp }

const (
	fig7Scale = 64
	fig9Scale = 128
)

func newKernel() *kernel {
	l2 := llamcat.DefaultConfig().L2SizeBytes
	return &kernel{traces: []kernelOp{
		{"fig7", false, llamcat.Llama3_70B, 8192 / fig7Scale, l2 / fig7Scale},
		{"fig7", true, llamcat.Llama3_405B, 8192 / fig7Scale, l2 / fig7Scale},
		{"fig9", false, llamcat.Llama3_70B, 32768 / fig9Scale, (16 << 20) / fig9Scale},
	}}
}

func (k *kernel) ops() int { return len(k.traces) * len(paperPolicies) }

func (k *kernel) pass(lt *layerTimes) (*outcome, error) {
	out := &outcome{}
	for _, op := range k.traces {
		t0 := time.Now()
		var tr *memtrace.Trace
		var err error
		if op.av {
			tr, err = llamcat.TraceAV(llamcat.AV(op.model, op.seq))
		} else {
			tr, err = llamcat.Trace(llamcat.Logit(op.model, op.seq))
		}
		if lt != nil {
			lt.traceS += time.Since(t0).Seconds()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op.name(), err)
		}
		out.Work.TraceInsts += int64(tr.TotalInsts())
		cfg := llamcat.DefaultConfig()
		cfg.L2SizeBytes = op.l2
		for _, p := range paperPolicies {
			t1 := time.Now()
			res, err := llamcat.RunTrace(cfg, tr, op.model.G, p.pol)
			if lt != nil {
				lt.simS += time.Since(t1).Seconds()
			}
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", op.name(), p.label, err)
			}
			ctr, err := counterMap(res.Raw)
			if err != nil {
				return nil, err
			}
			out.Cells = append(out.Cells, cellResult{Name: op.name() + "/" + p.label, Cycles: res.Cycles, Counters: ctr})
			out.Work.SimCycles += res.Cycles
			out.Work.L2Accesses += res.Raw.L2Accesses
		}
	}
	return out, nil
}

// counterMap renders a counter block field by field, so the output
// check compares every counter by name.
func counterMap(c any) (map[string]int64, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	m := map[string]int64{}
	return m, json.Unmarshal(b, &m)
}

// fleet is one generated fleet scenario and the options a pass runs it
// with. Every pass runs on one worker against a fresh private step memo
// and a flushed operator-trace cache.
type fleet struct {
	cfg    llamcat.Config
	scn    cluster.Scenario
	nodes  int
	router cluster.Policy
	// observe attaches telemetry gauge sampling and hwprof to a pass
	// (sampling period in cycles; 0 = no observers).
	observe int64
}

func (f *fleet) ops() int { return 1 }

func (f *fleet) pass(lt *layerTimes) (*outcome, error) {
	serving.FlushSharedCaches()
	opts := cluster.Options{Parallel: 1, Memo: serving.NewStepMemo()}
	if f.observe > 0 {
		opts.Telemetry = telemetry.NewCollector(f.observe)
		opts.HWProf = hwprof.Spec{Enabled: true, SampleEvery: f.observe}
	}
	t0 := time.Now()
	m, err := cluster.Run(f.cfg, f.scn, f.nodes, f.router, opts)
	if lt != nil {
		lt.clusterS += time.Since(t0).Seconds()
	}
	if err != nil {
		return nil, err
	}
	var events []telemetry.Event
	if opts.Telemetry != nil {
		events = opts.Telemetry.Events()
	}
	return fleetOutcome(f.scn, m, events), nil
}

// fleetOutcome summarises a fleet run and checks its conservation laws:
// every request retires exactly once with its whole decode budget.
func fleetOutcome(scn cluster.Scenario, m *cluster.Metrics, events []telemetry.Event) *outcome {
	out := &outcome{}
	bad := func(format string, a ...any) {
		out.conservation = append(out.conservation, fmt.Sprintf(format, a...))
	}
	budget := make(map[int]int, len(scn.Requests))
	for _, r := range scn.Requests {
		budget[r.ID] = r.DecodeTokens
	}
	h := fnv.New64a()
	var tokens int64
	if len(m.PerRequest) != len(scn.Requests) {
		bad("%d request results for %d requests", len(m.PerRequest), len(scn.Requests))
	}
	for i, r := range m.PerRequest {
		switch {
		case r.ID != i:
			bad("result %d carries request ID %d", i, r.ID)
		case r.Dropped || r.Node < 0:
			bad("request %d never ran", r.ID)
		case r.Tokens != budget[r.ID]:
			bad("request %d generated %d tokens, budget %d", r.ID, r.Tokens, budget[r.ID])
		case r.FinishCycle < r.ArrivalCycle || r.FinishCycle > m.Makespan:
			bad("request %d finished at %d outside [%d, %d]", r.ID, r.FinishCycle, r.ArrivalCycle, m.Makespan)
		}
		tokens += int64(r.Tokens)
		fmt.Fprintf(h, "%d:%d;", r.ID, r.FinishCycle)
	}
	if tokens != scn.TotalTokens() || m.Tokens != tokens {
		bad("fleet generated %d tokens (per-request sum %d), budgets sum to %d", m.Tokens, tokens, scn.TotalTokens())
	}
	if events != nil {
		retired := make(map[int]int, len(scn.Requests))
		for _, ev := range events {
			if ev.Kind == telemetry.KindRetire {
				retired[ev.Req]++
			}
		}
		for id := range budget {
			if retired[id] != 1 {
				bad("request %d retired %d times", id, retired[id])
			}
		}
	}
	out.Fleet = &fleetResult{Makespan: m.Makespan, Tokens: m.Tokens, FinishDigest: fmt.Sprintf("%016x", h.Sum64())}
	w := &out.Work
	w.Requests = int64(len(scn.Requests))
	w.MemoHits, w.MemoMisses = m.StepCache.MemoHits, m.StepCache.MemoMisses
	w.OpCacheMisses, w.SimResets = m.StepCache.OpCacheMisses, m.StepCache.SimResets
	w.TelemetryEvent = int64(len(events))
	for _, n := range m.PerNode {
		w.Steps += n.Steps
		w.SimCycles += n.Counters.Cycles
		w.L2Accesses += n.Counters.L2Accesses
	}
	return out
}

// shuffle permutes xs in place with the seed's splitmix64 stream.
func shuffle[T any](r *serving.Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// spread returns n integers evenly covering [lo, hi].
func spread(n, lo, hi int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = lo
		if n > 1 {
			xs[i] = lo + i*(hi-lo)/(n-1)
		}
	}
	return xs
}

// Fleet scenarios draw stratified inputs: the seed shuffles a fixed
// multiset of request contents, arrival gaps and session labels, so
// every seed gives a different fleet with the same marginal
// distributions. That keeps a pass's cost nearly seed-independent,
// which a uniform draw over a few dozen requests does not.
const (
	fleetScale = 64

	coldConversations = 5
	coldTurns         = 2
	coldSessions      = 64 // conversations draw distinct session labels below this
	coldNodes         = 4
	coldGapCycles     = 200000

	backlogRequests = 16384
	backlogNodes    = 4
	backlogSample   = 20000
)

// newFleetCold builds the session-heavy fleet: multi-turn conversations
// whose follow-up turns re-send the previous turn's context as a prompt
// prefix, chunked prefill, a per-node prefix cache and session-affinity
// routing. The conversations' contents are fixed; the seed draws which
// session (hence home node) each conversation has, the order in which
// turns of different conversations interleave, and the arrival gaps.
func newFleetCold(seed uint64) (*fleet, error) {
	r := &serving.Rand{State: seed}
	n := coldConversations * coldTurns
	minP, maxP := 16, 2048/fleetScale
	suffixes := spread(n, minP, maxP)
	gaps := make([]float64, n)
	order := make([]int, n) // conversation of each arrival slot
	for i := range gaps {
		// Exponential quantiles: a Poisson process's gaps, stratified.
		gaps[i] = -coldGapCycles * math.Log(1-(float64(i)+0.5)/float64(n))
		order[i] = i % coldConversations
	}
	shuffle(r, gaps)
	shuffle(r, order)
	labels := spread(coldSessions, 0, coldSessions-1)
	shuffle(r, labels)
	session := labels[:coldConversations]

	turn := make([]int, coldConversations)
	context := make([]int, coldConversations) // previous turn's prompt + answer
	reqs := make([]cluster.Request, n)
	var clock float64
	for i, c := range order {
		clock += gaps[i]
		k := c*coldTurns + turn[c] // this turn's fixed content
		req := serving.Request{
			ID: i, Model: llamcat.Llama3_70B,
			PromptLen: context[c] + suffixes[k], PrefixLen: context[c],
			DecodeTokens: 2 + k%3, ArrivalCycle: int64(clock), Session: session[c],
		}
		turn[c]++
		context[c] = req.PromptLen + req.DecodeTokens
		reqs[i] = cluster.Request{Request: req, Session: req.Session}
	}
	scn := cluster.Scenario{
		Name: fmt.Sprintf("fleet_cold/seed%d", seed), Requests: reqs, MaxBatch: 4,
		Sched: serving.SchedulerConfig{
			Policy: serving.SchedChunked, ChunkTokens: 16,
			PrefixCacheTokens: 16 * int64(maxP),
		},
	}
	return newFleet(scn, coldNodes, cluster.Policy{Kind: cluster.SessionAffinity}, 0)
}

// newFleetBacklog builds the memo-warm fleet: a few request shapes all
// arriving at cycle 0, so thousands of requests queue per node behind
// the least-outstanding router and the chunked scheduler, with
// telemetry gauge sampling and hwprof attached.
func newFleetBacklog(seed uint64) (*fleet, error) {
	shapes := []struct{ prompt, decode int }{{16, 2}, {16, 3}}
	reqs := make([]cluster.Request, backlogRequests)
	for i := range reqs {
		s := shapes[i%len(shapes)]
		reqs[i] = cluster.Request{Request: serving.Request{
			Model: llamcat.Llama3_70B, PromptLen: s.prompt, DecodeTokens: s.decode, Session: i,
		}, Session: i}
	}
	shuffle(&serving.Rand{State: seed}, reqs)
	for i := range reqs {
		reqs[i].ID = i
	}
	scn := cluster.Scenario{
		Name: fmt.Sprintf("fleet_backlog/seed%d", seed), Requests: reqs, MaxBatch: 2,
		Sched: serving.SchedulerConfig{Policy: serving.SchedChunked, ChunkTokens: 16},
	}
	return newFleet(scn, backlogNodes, cluster.Policy{Kind: cluster.LeastOutstanding}, backlogSample)
}

func newFleet(scn cluster.Scenario, nodes int, router cluster.Policy, observe int64) (*fleet, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	cfg := llamcat.DefaultConfig()
	cfg.L2SizeBytes /= fleetScale
	cfg.Throttle = llamcat.PolicyDynMGBMA.Throttle
	cfg.Arbiter = llamcat.PolicyDynMGBMA.Arbiter
	return &fleet{cfg: cfg, scn: scn, nodes: nodes, router: router, observe: observe}, nil
}
