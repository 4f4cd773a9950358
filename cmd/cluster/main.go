// Command cluster runs fleet-scale serving scenarios: an open-loop
// request stream dispatched by a router to N simulated nodes, each a
// full continuous-batching engine on its own cycle-level simulator.
// This is the production regime above cmd/serve — the question is no
// longer only how one accelerator behaves under batched decode
// traffic, but how routing policy spreads that traffic across a
// fleet, and how the answer interacts with the paper's cache
// arbitration/throttling policies running on every node.
//
//	cluster                                   # stock 16-request fleet, 5 routers × {1,2,4} nodes
//	cluster -nodes 8 -routers p2c,affinity    # narrower matrix
//	cluster -streams 32 -sessions 8 -rate 8000
//	cluster -policy dynmg+BMA -model mix -av  # cache policy / workload knobs
//	cluster -sched chunked -chunk 32 -routers ttft-pressure,least-outstanding
//	cluster -arrival burst:40000:0.25:6 -shed 400:3:20000:forward
//	cluster -rates 1,2,4 -nodes 2 -routers least-outstanding -shed 400 -slo-ttft 2000000
//	cluster -sched chunked -session-depth 3 -prefix-cache 4096 -routers affinity,prefix-affinity
//	cluster -sched chunked -session-depth 3 -prefix-caches 0,4096 -session-sweep 4,8 -nodes 2
//	cluster -faults crash:0:50000:150000,detect:5000 -nodes 2 -routers lot -slo-ttft 600000
//	cluster -fault-mtbfs 100000,300000 -fault-mttrs 50000 -fault-detect 5000 -nodes 4 -routers lot
//	cluster -json                             # machine-readable fleet metrics
//
// Workload flags (-streams, -sessions, -seqmin/-seqmax,
// -tokmin/-tokmax, -rate, -seed, -arrival) shape the fixed-seed
// request population and its arrival-rate shape (bursty, ramping,
// diurnal or trace-replayed modulation of the Poisson process);
// scheduler flags (-sched, -chunk, -kvcap, -preempt) select every
// node's prefill/decode co-scheduling policy, prefill chunk size,
// KV-capacity admission bound and recompute-on-preempt victim policy
// (the ttft-pressure router balances on the prefill backlog these
// schedulers create); -shed configures router-level overload control
// (per-node saturation threshold, retry cap, exponential backoff,
// optional least-loaded forwarding); SLO flags (-slo-ttft, -slo-tbt)
// set per-request deadlines and add goodput-under-SLO reports;
// -rates switches to the overload-grid mode — the workload is
// regenerated at each arrival-rate multiplier and swept against the
// overload combos built from -preempt/-shed, producing the
// goodput-vs-load curves; session flags (-session-depth,
// -prefix-cache) chain each session's requests into multi-turn
// conversations and give every node a capacity-bounded prefix cache so
// follow-up turns routed to the node holding their context skip
// re-prefilling it (the affinity and prefix-affinity routers exploit
// this); -prefix-caches switches to the prefix-grid mode — the
// workload is regenerated at each -session-sweep locality point and
// swept across cache capacities × -routers, producing the
// TTFT-vs-router curves of the prefix-reuse study; -faults injects a
// deterministic crash/straggler schedule into a single run (explicit
// crash:/slow: clauses or a gen: splitmix64 generator, detect:
// detection latency, redispatch/drop in-flight recovery, aware/blind
// routing) and -fault-mtbfs x -fault-mttrs switches to the
// fault-grid mode — each MTBF x MTTR regime is run twice, in-flight
// redispatch vs drop-on-failure, on one generated crash schedule
// (seeded by -seed, -fault-count crashes per node, -fault-detect
// detection latency), producing goodput-per-failure-regime tables;
// -nodes and -routers shape the evaluation matrix; -policy selects the cache-level
// (throttle+arbiter) policy every node runs; -scale divides the
// prompt-length range and the L2 size together, like every other
// harness; -stepcache selects the token-step fast path (on =
// signature memo shared across the fleet's nodes and the grid's
// cells, nomemo = no memoized replay, off = the naive reference
// pipeline); telemetry flags record the request lifecycle —
// -trace-out writes a Chrome trace-event JSON trace per cell
// (openable in Perfetto: router and nodes as processes, batch slots
// as threads, requests as flow-linked spans), -events-out a JSONL
// event log, -timeseries-out a CSV of per-node gauges sampled every
// -sample-every cycles; with more than one cell the paths need a %
// placeholder that expands to the cell label, and recording is
// bit-inert — metrics are identical with the flags on or off, and
// the files are byte-reproducible at any -parallel width (the
// events' memo-hit annotation shares the step-cache caveat below;
// -stepcache nomemo removes it);
// -hwprof attributes every node's per-step hardware-counter deltas to
// phase (prefill, decode, recompute after preempt/redispatch), to the
// co-scheduled streams and to -sample-every wall-clock buckets,
// classifies each node's bottleneck (memory-bound, compute-bound,
// stalled, idle) and prints the fleet profile report after the table
// (or to -hwprof-out; works in every grid mode, and hw counter tracks
// also flow into the telemetry exporters);
// -json switches the report from the aligned table to a
// JSON document of the full per-cell fleet metrics (TTFT percentiles
// included); -cpuprofile/-memprofile capture pprof profiles of the
// run. Runs are deterministic for a fixed flag set at any -parallel
// width (modulo the step-cache hit-rate diagnostics, which depend on
// fan-out timing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hwprof"
	"repro/internal/profiling"
	"repro/internal/serving"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// cliOpts carries the parsed flag set into run. The *Set booleans
// record which optional flags were passed explicitly (main fills them
// via flag.Visit) so run can reject explicit zeroes without treating
// the defaults as errors — and stays unit-testable without a flag
// set.
type cliOpts struct {
	streams, sessions, batch       int
	sessionDepth                   int
	prefixCache                    int64
	prefixCaches, sessionSweep     string
	nodes, routers, policy, model  string
	seqmin, seqmax, tokmin, tokmax int
	rate                           float64
	seed                           uint64
	av                             bool
	scale                          int
	sched                          string
	chunk                          int
	kvcap                          int64
	arrival, preempt, shed, rates  string
	faults                         string
	faultMTBFs, faultMTTRs         string
	faultDetect                    int64
	faultCount                     int
	sloTTFT                        int64
	sloTBT                         float64
	sloTTFTSet, sloTBTSet          bool
	faultDetectSet, faultCountSet  bool
	parallel                       int
	verbose, jsonOut               bool
	stepcache                      string
	traceOut, eventsOut            string
	timeseriesOut                  string
	sampleEvery                    int64
	hwprof                         bool
	hwprofOut                      string
}

func main() {
	var o cliOpts
	flag.IntVar(&o.streams, "streams", 16, "number of decode requests in the fleet scenario")
	flag.IntVar(&o.sessions, "sessions", 4, "distinct sessions the requests are drawn from (0 = one per request)")
	flag.IntVar(&o.sessionDepth, "session-depth", 1, "turns per conversation: >1 chains session requests so follow-ups extend the previous turn's context")
	flag.Int64Var(&o.prefixCache, "prefix-cache", 0, "per-node session prefix-cache capacity in KV tokens (0 = off; needs a prefill -sched)")
	flag.StringVar(&o.prefixCaches, "prefix-caches", "", "prefix-grid mode: comma-separated per-node cache capacities (e.g. 0,4096) swept against -session-sweep and -routers")
	flag.StringVar(&o.sessionSweep, "session-sweep", "", "prefix-grid mode: comma-separated session counts (default: just -sessions)")
	flag.IntVar(&o.batch, "batch", 4, "per-node continuous-batching capacity")
	flag.StringVar(&o.nodes, "nodes", "1,2,4", "comma-separated node counts to evaluate")
	flag.StringVar(&o.routers, "routers", "all", "comma-separated router policies (round-robin, least-outstanding, p2c, affinity, prefix-affinity, ttft-pressure) or 'all'")
	flag.StringVar(&o.policy, "policy", "dynmg+BMA", "cache policy every node runs (throttle+arbiter)")
	flag.StringVar(&o.model, "model", "70b", "request model mix: 70b, 405b or mix")
	flag.IntVar(&o.seqmin, "seqmin", 0, "min prompt length (0 = 512/scale)")
	flag.IntVar(&o.seqmax, "seqmax", 0, "max prompt length (0 = 2048/scale)")
	flag.IntVar(&o.tokmin, "tokmin", 4, "min tokens decoded per request")
	flag.IntVar(&o.tokmax, "tokmax", 8, "max tokens decoded per request")
	flag.Float64Var(&o.rate, "rate", 15000, "mean inter-arrival gap in cycles (0 = all arrive at cycle 0)")
	flag.Uint64Var(&o.seed, "seed", 1, "arrival-process seed")
	flag.BoolVar(&o.av, "av", false, "append the AV operator to every token step")
	flag.IntVar(&o.scale, "scale", 8, "divide default prompt lengths and the L2 size by this factor")
	flag.StringVar(&o.sched, "sched", "decode-only", "prefill scheduler every node runs: decode-only, prefill-first or chunked")
	flag.IntVar(&o.chunk, "chunk", 32, "prefill chunk size in tokens (chunked scheduler only)")
	flag.Int64Var(&o.kvcap, "kvcap", 0, "per-node KV-cache capacity in tokens, gating admission (0 = unlimited)")
	flag.StringVar(&o.arrival, "arrival", "poisson", "arrival shape: poisson, burst:PERIOD:DUTY:FACTOR, ramp:PERIOD:FACTOR, diurnal:PERIOD:FACTOR or trace:PERIOD:M1,M2,...")
	flag.StringVar(&o.preempt, "preempt", "off", "per-node KV preemption victim policy: off, newest or fewest-tokens (needs a prefill -sched and -kvcap)")
	flag.StringVar(&o.shed, "shed", "off", "router overload control: off or SAT[:RETRIES[:BACKOFF[:forward]]] (saturation tokens, retry cap, backoff cycles)")
	flag.Int64Var(&o.sloTTFT, "slo-ttft", 0, "TTFT SLO deadline in cycles (0 = no TTFT deadline)")
	flag.Float64Var(&o.sloTBT, "slo-tbt", 0, "mean time-between-tokens SLO deadline in cycles (0 = no TBT deadline)")
	flag.StringVar(&o.rates, "rates", "", "overload-grid mode: comma-separated arrival-rate multipliers (e.g. 1,2,4) swept against the -preempt/-shed combos")
	flag.StringVar(&o.faults, "faults", "off", "node-failure schedule: off or comma-joined clauses crash:NODE:AT[:REJOIN], slow:NODE:FROM:TO:FACTOR, gen:SEED:MTBF:MTTR:COUNT, detect:CYCLES, drop|redispatch, blind|aware")
	flag.StringVar(&o.faultMTBFs, "fault-mtbfs", "", "fault-grid mode: comma-separated mean-time-between-failures values in cycles (needs -fault-mttrs)")
	flag.StringVar(&o.faultMTTRs, "fault-mttrs", "", "fault-grid mode: comma-separated mean-time-to-repair values in cycles (needs -fault-mtbfs)")
	flag.Int64Var(&o.faultDetect, "fault-detect", 0, "fault-grid mode: failure-detection latency in cycles (>= 0)")
	flag.IntVar(&o.faultCount, "fault-count", 3, "fault-grid mode: crash incidents per generated schedule")
	flag.IntVar(&o.parallel, "parallel", 0, "concurrent cells / node engines (0 = GOMAXPROCS)")
	flag.BoolVar(&o.verbose, "v", false, "stream per-cell progress to stderr")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON metrics instead of the table")
	flag.StringVar(&o.stepcache, "stepcache", "on", "token-step fast path: on, nomemo or off (the naive reference)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON (Perfetto) trace per cell; with >1 cell the path needs a % cell placeholder")
	flag.StringVar(&o.eventsOut, "events-out", "", "write a JSONL lifecycle-event log per cell (same % placeholder rule)")
	flag.StringVar(&o.timeseriesOut, "timeseries-out", "", "write a CSV gauge time series per cell (needs -sample-every; same % placeholder rule)")
	flag.Int64Var(&o.sampleEvery, "sample-every", 0, "sample per-node telemetry gauges every N cycles (0 = off; needs an output path)")
	flag.BoolVar(&o.hwprof, "hwprof", false, "attribute hardware counters per phase/request/bucket on every node and classify the bottleneck (-sample-every sets the bucket width)")
	flag.StringVar(&o.hwprofOut, "hwprof-out", "", "write the per-cell fleet hardware profile report to this file instead of stdout (needs -hwprof; same % placeholder rule)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	o.sloTTFTSet = flagSet("slo-ttft")
	o.sloTBTSet = flagSet("slo-tbt")
	o.faultDetectSet = flagSet("fault-detect")
	o.faultCountSet = flagSet("fault-count")

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}

	err = run(o)

	// Flush the profiles before the error exit below: os.Exit skips
	// defers, which would truncate them.
	stopCPU()
	if merr := profiling.WriteHeap(*memprofile); merr != nil {
		fmt.Fprintln(os.Stderr, "cluster:", merr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

// flagSet reports whether the named flag was passed explicitly, so a
// contradictory combination (-chunk without -sched chunked) or an
// explicit zero (-slo-ttft 0) errors instead of being silently
// treated as the default.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func modelMix(name string) ([]workload.ModelConfig, error) {
	switch name {
	case "70b":
		return []workload.ModelConfig{workload.Llama3_70B}, nil
	case "405b":
		return []workload.ModelConfig{workload.Llama3_405B}, nil
	case "mix":
		return []workload.ModelConfig{workload.Llama3_70B, workload.Llama3_405B}, nil
	}
	return nil, fmt.Errorf("unknown model mix %q", name)
}

// parseNodes reads the -nodes list, rejecting non-positive counts up
// front — a zero node count would otherwise surface as a deep
// simulator error (or, with a naive modulo router, a panic).
func parseNodes(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("invalid -nodes entry %q: %v", s, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("-nodes entries must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -nodes list")
	}
	return out, nil
}

func parseRouters(list string) ([]cluster.Policy, error) {
	if list == "all" {
		return cluster.Policies(), nil
	}
	var out []cluster.Policy
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		p, err := cluster.ParsePolicy(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -routers list")
	}
	return out, nil
}

// parseRates reads the -rates multiplier list of the overload-grid
// mode, rejecting non-positive multipliers up front.
func parseRates(list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -rates entry %q: %v", s, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; a NaN multiplier would slip
		// past a plain r <= 0 check (NaN comparisons are all false) and an
		// infinite one would zero every inter-arrival gap downstream.
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return nil, fmt.Errorf("-rates entries must be positive and finite, got %v", r)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -rates list")
	}
	return out, nil
}

// parseCaches reads the -prefix-caches capacity list of the
// prefix-grid mode. Zero entries are allowed — they are the cache-off
// baseline column — but negatives are rejected up front.
func parseCaches(list string) ([]int64, error) {
	var out []int64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		c, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -prefix-caches entry %q: %v", s, err)
		}
		if c < 0 {
			return nil, fmt.Errorf("-prefix-caches entries must be non-negative, got %d", c)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -prefix-caches list")
	}
	return out, nil
}

// parseSessionSweep reads the -session-sweep session-count list of the
// prefix-grid mode.
func parseSessionSweep(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("invalid -session-sweep entry %q: %v", s, err)
		}
		if n <= 0 {
			return nil, fmt.Errorf("-session-sweep entries must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -session-sweep list")
	}
	return out, nil
}

func run(o cliOpts) error {
	mode, err := serving.ParseStepCacheMode(o.stepcache)
	if err != nil {
		return err
	}
	schedPol, err := serving.ParseSchedPolicy(o.sched)
	if err != nil {
		return err
	}
	preemptPol, err := serving.ParsePreemptPolicy(o.preempt)
	if err != nil {
		return err
	}
	arrival, err := serving.ParseArrival(o.arrival)
	if err != nil {
		return err
	}
	overload, err := cluster.ParseOverload(o.shed)
	if err != nil {
		return err
	}
	faults, err := cluster.ParseFaults(o.faults)
	if err != nil {
		return err
	}
	// Validate the workload shape up front with flag-level messages
	// instead of letting a deep generator or engine error (or hang)
	// report it. An SLO deadline flag passed explicitly must be
	// positive — an explicit zero is a contradiction (asking for a
	// deadline and disabling it at once), not a disabled deadline.
	switch {
	case o.streams <= 0:
		return fmt.Errorf("-streams must be positive, got %d", o.streams)
	case o.batch <= 0:
		return fmt.Errorf("-batch must be positive, got %d", o.batch)
	case o.sessions < 0:
		return fmt.Errorf("-sessions must be non-negative, got %d", o.sessions)
	case o.sessionDepth < 0:
		return fmt.Errorf("-session-depth must be non-negative, got %d", o.sessionDepth)
	case o.prefixCache < 0:
		return fmt.Errorf("-prefix-cache must be non-negative, got %d", o.prefixCache)
	case o.tokmin <= 0 || o.tokmax < o.tokmin:
		return fmt.Errorf("decode range [-tokmin %d, -tokmax %d] invalid", o.tokmin, o.tokmax)
	case o.rate < 0:
		return fmt.Errorf("-rate must be non-negative, got %v", o.rate)
	case o.kvcap < 0:
		return fmt.Errorf("-kvcap must be non-negative, got %d", o.kvcap)
	case o.sloTTFT < 0 || (o.sloTTFTSet && o.sloTTFT == 0):
		return fmt.Errorf("-slo-ttft must be a positive cycle deadline, got %d", o.sloTTFT)
	case o.sloTBT < 0 || (o.sloTBTSet && o.sloTBT == 0):
		return fmt.Errorf("-slo-tbt must be a positive cycle deadline, got %v", o.sloTBT)
	}
	slo := serving.SLO{TTFTCycles: o.sloTTFT, TBTCycles: o.sloTBT}
	sched := serving.SchedulerConfig{Policy: schedPol, KVCapTokens: o.kvcap, Preempt: preemptPol,
		PrefixCacheTokens: o.prefixCache}
	if schedPol == serving.SchedChunked {
		sched.ChunkTokens = o.chunk
	} else if flagSet("chunk") {
		return fmt.Errorf("-chunk only applies to -sched chunked (got -sched %s)", schedPol)
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if o.scale <= 0 {
		o.scale = 1
	}
	nodeCounts, err := parseNodes(o.nodes)
	if err != nil {
		return err
	}
	routerPols, err := parseRouters(o.routers)
	if err != nil {
		return err
	}
	pol, err := llamcat.ParsePolicy(o.policy)
	if err != nil {
		return err
	}
	models, err := modelMix(o.model)
	if err != nil {
		return err
	}
	// Computed defaults clamp to the mapping floor like
	// cluster.DefaultScenario; explicit values are validated as given.
	if o.seqmin == 0 {
		if o.seqmin = 512 / o.scale; o.seqmin < 16 {
			o.seqmin = 16
		}
	}
	if o.seqmax == 0 {
		if o.seqmax = 2048 / o.scale; o.seqmax < o.seqmin {
			o.seqmax = o.seqmin
		}
	}
	ccfg := cluster.ScenarioConfig{
		ScenarioConfig: serving.ScenarioConfig{
			Name:             fmt.Sprintf("%s/%dreq/seed%d", o.model, o.streams, o.seed),
			Seed:             o.seed,
			NumRequests:      o.streams,
			Models:           models,
			MinPromptLen:     o.seqmin,
			MaxPromptLen:     o.seqmax,
			MinDecode:        o.tokmin,
			MaxDecode:        o.tokmax,
			MeanInterArrival: o.rate,
			Arrival:          arrival,
			MaxBatch:         o.batch,
			IncludeAV:        o.av,
			SessionDepth:     o.sessionDepth,
			Sched:            sched,
		},
		NumSessions: o.sessions,
	}

	cachePol := experiments.Policy{Label: o.policy, Throttle: pol.Throttle, Arbiter: pol.Arbiter}
	// Telemetry output paths are validated before any simulation —
	// inside each mode, where the sweep's cell count (and so the %
	// placeholder requirement) is known. -hwprof consumes the
	// -sample-every grid directly (bucketed utilization), so sampling
	// without a telemetry output path is legal when profiling is on.
	trace := &telemetry.Spec{
		TraceOut:          o.traceOut,
		EventsOut:         o.eventsOut,
		TimeseriesOut:     o.timeseriesOut,
		SampleEvery:       o.sampleEvery,
		AllowBareSampling: o.hwprof,
	}
	if o.hwprofOut != "" && !o.hwprof {
		return fmt.Errorf("-hwprof-out needs -hwprof")
	}
	opts := experiments.Options{Scale: o.scale, Parallel: o.parallel, StepCache: mode, Trace: trace,
		HWProf: hwprof.Spec{Enabled: o.hwprof, SampleEvery: o.sampleEvery}, HWProfOut: o.hwprofOut}
	if o.verbose {
		opts.Log = os.Stderr
	}

	if o.rates != "" && o.prefixCaches != "" {
		return fmt.Errorf("-rates (overload grid) and -prefix-caches (prefix grid) select different modes, pick one")
	}
	if o.sessionSweep != "" && o.prefixCaches == "" {
		return fmt.Errorf("-session-sweep only applies to the -prefix-caches grid mode")
	}
	// The fault flags: -fault-mtbfs/-fault-mttrs come as a pair and
	// select the fault-grid mode; an explicit -faults schedule runs the
	// standard matrix on a single node count. Neither composes with the
	// other grid modes.
	if (o.faultMTBFs != "") != (o.faultMTTRs != "") {
		return fmt.Errorf("-fault-mtbfs and -fault-mttrs (fault-grid mode) come as a pair, got one without the other")
	}
	if (o.faultDetectSet || o.faultCountSet) && o.faultMTBFs == "" {
		return fmt.Errorf("-fault-detect/-fault-count only apply to the -fault-mtbfs grid mode (a single run's detection latency goes in the -faults spec)")
	}
	if faults.Enabled() || o.faultMTBFs != "" {
		what := "-faults"
		if o.faultMTBFs != "" {
			what = "-fault-mtbfs"
		}
		switch {
		case faults.Enabled() && o.faultMTBFs != "":
			return fmt.Errorf("-faults (explicit schedule) and -fault-mtbfs (fault grid) select different modes, pick one")
		case o.rates != "" || o.prefixCaches != "":
			return fmt.Errorf("%s does not compose with the -rates/-prefix-caches grid modes", what)
		case len(nodeCounts) != 1:
			return fmt.Errorf("%s names fleet-relative node indices and takes a single -nodes count, got %v", what, nodeCounts)
		}
	}
	sw := sweep{o: o, ccfg: ccfg, nodes: nodeCounts, routers: routerPols, pol: cachePol, slo: slo, opts: opts}
	var text string
	var doc jsonDoc
	switch {
	case o.rates != "":
		text, doc, err = sw.overload(preemptPol, overload)
	case o.prefixCaches != "":
		text, doc, err = sw.prefix()
	case o.faultMTBFs != "":
		text, doc, err = sw.fault()
	default:
		text, doc, err = sw.standard(overload, faults)
	}
	if err != nil {
		return err
	}
	if o.jsonOut {
		doc.Policy, doc.Scale = cachePol.Label, o.scale
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Print(text)
	return nil
}

// sweep is what every grid mode shares: the parsed flags, the workload
// generator config, the -nodes and -routers lists, the cache policy,
// the SLO and the grid runner options. Each mode validates its own
// flags, runs its grid and returns the text report and the -json
// document.
type sweep struct {
	o       cliOpts
	ccfg    cluster.ScenarioConfig
	nodes   []int
	routers []cluster.Policy
	pol     experiments.Policy
	slo     serving.SLO
	opts    experiments.Options
}

// checkOutputs validates the telemetry and -hwprof-out paths before any
// simulation, once the mode's cell count (and so the % placeholder
// requirement) is known.
func (sw *sweep) checkOutputs(cells int) error {
	if err := sw.opts.Trace.Validate(cells > 1); err != nil {
		return err
	}
	return telemetry.ValidateOutPath("-hwprof-out", sw.o.hwprofOut, cells > 1)
}

// standard is the default mode: one scenario across the -nodes ×
// -routers matrix, every cell under the -shed overload control and the
// -faults schedule. The text report follows the table with each cell's
// goodput under the SLO (when set) and, with no -hwprof-out, each
// cell's fleet profile report.
func (sw *sweep) standard(overload cluster.OverloadConfig, faults cluster.FaultConfig) (string, jsonDoc, error) {
	if err := sw.checkOutputs(len(sw.nodes) * len(sw.routers)); err != nil {
		return "", jsonDoc{}, err
	}
	scn, err := cluster.NewScenario(sw.ccfg)
	if err != nil {
		return "", jsonDoc{}, err
	}
	grid, err := experiments.ClusterGrid(scn, sw.nodes, sw.routers, sw.pol, overload, faults, sw.opts)
	if err != nil {
		return "", jsonDoc{}, err
	}
	var judged *serving.SLO
	if sw.slo.Enabled() {
		judged = &sw.slo
	}
	doc := jsonDoc{Scenario: scn.Name, Requests: len(scn.Requests), Scheduler: experiments.SchedLabel(sw.ccfg.Sched)}
	var text, reports strings.Builder
	text.WriteString(grid.Render())
	for i, n := range sw.nodes {
		for j, r := range sw.routers {
			m := grid.Metrics[i][j]
			cell := newJSONCell(m, judged)
			cell.Nodes, cell.Router = n, r.String()
			doc.Cells = append(doc.Cells, cell)
			if judged != nil {
				fmt.Fprintf(&text, "\ngoodput under SLO [nodes=%d %s]\n%s", n, r, *cell.Goodput)
			}
			// With no -hwprof-out the runner wrote no report files, so
			// the reports follow the table on stdout.
			if m.HW != nil && sw.o.hwprofOut == "" {
				fmt.Fprintf(&reports, "\n[nodes=%d %s]\n%s", n, r, m.HW.Render())
			}
		}
	}
	text.WriteString(reports.String())
	return text.String(), doc, nil
}

// overload is the -rates mode: one fleet shape swept across
// arrival-rate multipliers × overload-control combos, reporting the
// goodput-vs-load curves. The combo ladder is built from the flags:
// the uncontrolled baseline, plus preemption (-preempt), shedding
// (-shed) and their combination when both are set.
func (sw *sweep) overload(preemptPol serving.PreemptPolicy, overload cluster.OverloadConfig) (string, jsonDoc, error) {
	rates, err := parseRates(sw.o.rates)
	if err != nil {
		return "", jsonDoc{}, err
	}
	if len(sw.nodes) != 1 {
		return "", jsonDoc{}, fmt.Errorf("-rates (overload-grid mode) takes a single -nodes count, got %v", sw.nodes)
	}
	if len(sw.routers) != 1 {
		return "", jsonDoc{}, fmt.Errorf("-rates (overload-grid mode) takes a single -routers policy, got %d", len(sw.routers))
	}
	combos := []experiments.OverloadCombo{{Label: "none"}}
	if preemptPol != serving.PreemptOff {
		combos = append(combos, experiments.OverloadCombo{Label: "preempt:" + preemptPol.String(), Preempt: preemptPol})
	}
	if overload.Enabled() {
		combos = append(combos, experiments.OverloadCombo{Label: "shed:" + overload.String(), Shed: overload})
		if preemptPol != serving.PreemptOff {
			combos = append(combos, experiments.OverloadCombo{Label: "preempt+shed", Preempt: preemptPol, Shed: overload})
		}
	}
	if len(combos) == 1 {
		return "", jsonDoc{}, fmt.Errorf("-rates (overload-grid mode) needs -preempt and/or -shed to compare against the uncontrolled baseline")
	}
	if err := sw.checkOutputs(len(rates) * len(combos)); err != nil {
		return "", jsonDoc{}, err
	}
	grid, err := experiments.OverloadGrid(sw.ccfg, rates, combos, sw.nodes[0], sw.routers[0], sw.pol, sw.slo, sw.opts)
	if err != nil {
		return "", jsonDoc{}, err
	}
	doc := jsonDoc{Workload: sw.ccfg.Name, Nodes: grid.Nodes, Router: grid.Router.String(), SLO: &sw.slo}
	for i, rate := range rates {
		for j, combo := range combos {
			cell := newJSONCell(grid.Metrics[i][j], &sw.slo)
			cell.Rate, cell.Combo = rate, combo.Label
			doc.Cells = append(doc.Cells, cell)
		}
	}
	return grid.Render(), doc, nil
}

// fault is the -fault-mtbfs/-fault-mttrs mode: one fleet shape
// swept across an MTBF × MTTR matrix of generated failure regimes,
// each cell run under both recovery policies (redispatch and drop),
// reporting goodput per regime. The crash schedules are generated from
// -seed, with -fault-count incidents per schedule and -fault-detect
// cycles of detection latency.
func (sw *sweep) fault() (string, jsonDoc, error) {
	mtbfs, err := parseFaultTimes("-fault-mtbfs", sw.o.faultMTBFs)
	if err != nil {
		return "", jsonDoc{}, err
	}
	mttrs, err := parseFaultTimes("-fault-mttrs", sw.o.faultMTTRs)
	if err != nil {
		return "", jsonDoc{}, err
	}
	if sw.o.faultDetect < 0 {
		return "", jsonDoc{}, fmt.Errorf("-fault-detect must be non-negative, got %d", sw.o.faultDetect)
	}
	if sw.o.faultCount <= 0 {
		return "", jsonDoc{}, fmt.Errorf("-fault-count must be positive, got %d", sw.o.faultCount)
	}
	if len(sw.routers) != 1 {
		return "", jsonDoc{}, fmt.Errorf("-fault-mtbfs (fault-grid mode) takes a single -routers policy, got %d", len(sw.routers))
	}
	if err := sw.checkOutputs(2 * len(mtbfs) * len(mttrs)); err != nil {
		return "", jsonDoc{}, err
	}
	grid, err := experiments.FaultGrid(sw.ccfg, mtbfs, mttrs, sw.o.seed, sw.o.faultCount, sw.o.faultDetect,
		sw.nodes[0], sw.routers[0], sw.pol, sw.slo, sw.opts)
	if err != nil {
		return "", jsonDoc{}, err
	}
	doc := jsonDoc{Workload: sw.ccfg.Name, Nodes: grid.Nodes, Router: grid.Router.String(),
		Seed: &sw.o.seed, Count: sw.o.faultCount, Detect: &sw.o.faultDetect, SLO: &sw.slo}
	for i, mtbf := range mtbfs {
		for j, mttr := range mttrs {
			for k, recovery := range []string{"redispatch", "drop"} {
				cell := newJSONCell(grid.Metrics[i][j][k], &sw.slo)
				cell.MTBF, cell.MTTR, cell.Recovery = mtbf, mttr, recovery
				doc.Cells = append(doc.Cells, cell)
			}
		}
	}
	return grid.Render(), doc, nil
}

// parseFaultTimes reads one of the fault-grid time axes, rejecting
// non-positive and non-finite values up front (like parseRates, a NaN
// would slip past a plain <= 0 check).
func parseFaultTimes(name, list string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid %s entry %q: %v", name, s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("%s entries must be positive and finite, got %v", name, v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list", name)
	}
	return out, nil
}

// prefix is the -prefix-caches mode: one fleet shape swept
// across session locality (-session-sweep, defaulting to the single
// -sessions count) × per-node prefix-cache capacity × router,
// reporting the TTFT-vs-router curves of the prefix-reuse study. Each
// cell regenerates the workload at its session count, so the same seed
// explores the same population at every locality point.
func (sw *sweep) prefix() (string, jsonDoc, error) {
	caches, err := parseCaches(sw.o.prefixCaches)
	if err != nil {
		return "", jsonDoc{}, err
	}
	sessions := []int{sw.o.sessions}
	if sw.o.sessionSweep != "" {
		if sessions, err = parseSessionSweep(sw.o.sessionSweep); err != nil {
			return "", jsonDoc{}, err
		}
	}
	if len(sw.nodes) != 1 {
		return "", jsonDoc{}, fmt.Errorf("-prefix-caches (prefix-grid mode) takes a single -nodes count, got %v", sw.nodes)
	}
	if err := sw.checkOutputs(len(sessions) * len(caches) * len(sw.routers)); err != nil {
		return "", jsonDoc{}, err
	}
	grid, err := experiments.PrefixGrid(sw.ccfg, sessions, caches, sw.routers, sw.nodes[0], sw.pol, sw.opts)
	if err != nil {
		return "", jsonDoc{}, err
	}
	doc := jsonDoc{Workload: sw.ccfg.Name, Nodes: grid.Nodes, SessionDepth: &sw.ccfg.SessionDepth}
	for i, s := range sessions {
		for j, c := range caches {
			for k, rt := range sw.routers {
				cell := newJSONCell(grid.Metrics[i][j][k], nil)
				cell.Sessions, cell.Cache, cell.Router = &s, &c, rt.String()
				doc.Cells = append(doc.Cells, cell)
			}
		}
	}
	return grid.Render(), doc, nil
}

// jsonDoc is the -json report of every grid mode: the grid's identity
// plus one entry per cell. The standard grid names its one scenario
// (scenario, requests, scheduler); the other modes name the workload
// family they regenerate per cell, with their fixed fleet shape and
// generator parameters. Fields a mode does not report are omitted; the
// ones that can legitimately be zero are pointers, so a zero a mode
// does report is kept.
type jsonDoc struct {
	Scenario     string       `json:"scenario,omitempty"`
	Requests     int          `json:"requests,omitempty"`
	Scheduler    string       `json:"scheduler,omitempty"`
	Workload     string       `json:"workload,omitempty"`
	Nodes        int          `json:"nodes,omitempty"`
	Router       string       `json:"router,omitempty"`
	SessionDepth *int         `json:"session_depth,omitempty"`
	Policy       string       `json:"policy"`
	Scale        int          `json:"scale"`
	Seed         *uint64      `json:"seed,omitempty"`
	Count        int          `json:"fault_count,omitempty"`
	Detect       *int64       `json:"detect_cycles,omitempty"`
	SLO          *serving.SLO `json:"slo,omitempty"`
	Cells        []jsonCell   `json:"cells"`
}

// jsonCell is one cell of the -json report: its axis values (nodes and
// router; rate and combo; sessions, cache_tokens and router; or mtbf,
// mttr and recovery) and its full fleet metrics (TTFT percentiles
// included).
type jsonCell struct {
	Nodes    int              `json:"nodes,omitempty"`
	Rate     float64          `json:"rate,omitempty"`
	Combo    string           `json:"combo,omitempty"`
	Sessions *int             `json:"sessions,omitempty"`
	Cache    *int64           `json:"cache_tokens,omitempty"`
	MTBF     float64          `json:"mtbf,omitempty"`
	MTTR     float64          `json:"mttr,omitempty"`
	Recovery string           `json:"recovery,omitempty"`
	Router   string           `json:"router,omitempty"`
	Metrics  *cluster.Metrics `json:"metrics"`
	// Counters re-exports every node's raw whole-run hardware counters
	// at the top level, node order, so scripts consuming profiles read
	// them without digging through the nested per-node metrics.
	Counters []stats.Counters `json:"counters"`
	// Goodput is present when the cell was judged under an SLO.
	Goodput *serving.SLOReport `json:"goodput,omitempty"`
}

// newJSONCell is one cell's metrics, per-node counters and, when slo is
// non-nil, goodput; the caller sets the axis fields.
func newJSONCell(m *cluster.Metrics, slo *serving.SLO) jsonCell {
	cell := jsonCell{Metrics: m, Counters: make([]stats.Counters, len(m.PerNode))}
	for i, nm := range m.PerNode {
		cell.Counters[i] = nm.Counters
	}
	if slo != nil {
		rep := m.Goodput(*slo)
		cell.Goodput = &rep
	}
	return cell
}
