// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in one process on one simulation worker, times repeated
// passes that each start from empty caches after an untimed warm-up
// pass, checks every simulated result, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 55 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (wall_s, cpu_s,
// setup_s, peak_rss_mb). With --trace 1 it alternates untraced passes
// with passes timed around each public call and covered by a CPU
// profile, and reports the per-layer metrics plus a table of where the
// workload's time goes. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupProbes is how many child processes time the set-up; setup_s is
// their median.
const setupProbes = 31

// maxProblemLines caps the output-check lines printed per pass.
const maxProblemLines = 5

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	probe    bool // child mode: set up, then exit
	record   string
}

func main() {
	var o options
	if err := parseFlags(&o, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var err error
	switch {
	case o.probe:
		_, err = newInstance(o.workload, o.seed)
	case o.record != "":
		err = record(o.record)
	default:
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(o *options, args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: cold or fleet_backlog")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 55, "measured seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	fs.BoolVar(&o.probe, "setup-probe", false, "set up the workload, then exit (used to time set-up)")
	fs.StringVar(&o.record, "record", "", "rewrite this expected-results file from fresh runs, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = *trace == 1
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case o.seconds < 1:
		return fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	case o.record == "" && !knownWorkload(o.workload):
		return fmt.Errorf("--workload must be one of %v, got %q", workloadNames, o.workload)
	}
	return nil
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// timeSetUp runs set-up (everything run does before its first timed
// call) in fresh child processes and returns the median time from
// process start to the end of set-up.
func timeSetUp(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// passStats is the host cost of one pass.
type passStats struct {
	wall, cpu, allocMB float64
	layers             layerTimes
}

// run measures one workload and writes its report; the last line is the
// JSON result.
func run(o options, w io.Writer) error {
	setupS, err := timeSetUp(o)
	if err != nil {
		return err
	}
	inst, err := newInstance(o.workload, o.seed)
	if err != nil {
		return err
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}

	var plain, traced []passStats
	prof := newCPUProfile()
	var first *outcome
	attempted, failed := 0, 0
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	var last time.Duration
	// Pass 0 warms up: it is checked but not timed into the medians. A
	// run has at least one untraced and, when traced, one traced pass.
	for i := 0; i < 3 || time.Since(start)+last <= budget; i++ {
		tracedPass := o.trace && i%2 == 1
		runtime.GC()
		ps, out, err := timedPass(inst, tracedPass, prof)
		last = time.Duration(ps.wall * float64(time.Second))
		fmt.Fprintf(os.Stderr, "pass %d: wall %.4f s, cpu %.4f s, traced %v\n", i, ps.wall, ps.cpu, tracedPass)
		attempted += inst.ops()
		if err != nil {
			fmt.Fprintf(w, "pass %d: %v\n", i, err)
			failed += inst.ops()
			continue
		}
		bad, problems := check(exp, o.workload, o.seed, out)
		if first == nil {
			first = out
		} else if out.Work != first.Work {
			bad = inst.ops()
			problems = append(problems, fmt.Sprintf("work counts %+v differ from the first pass's %+v", out.Work, first.Work))
		}
		for j, p := range problems {
			if j == maxProblemLines {
				fmt.Fprintf(w, "pass %d: ... %d more\n", i, len(problems)-j)
				break
			}
			fmt.Fprintf(w, "pass %d: %s\n", i, p)
		}
		failed += bad
		switch {
		case i == 0:
		case tracedPass:
			traced = append(traced, ps)
		default:
			plain = append(plain, ps)
		}
	}
	if first == nil || len(plain) == 0 {
		return errors.New("no timed pass succeeded")
	}
	if len(first.Cells) > 0 {
		fmt.Fprintln(w, paperContext(first))
	}
	fmt.Fprintln(w, workRecord(first.Work))

	metrics := map[string]metric{}
	if o.trace {
		if len(traced) == 0 || len(plain) == 0 {
			return errors.New("no successful traced and untraced pass pair")
		}
		metrics = layerMetrics(first.Work, plain, traced, prof)
		fmt.Fprint(w, timeTable(o.workload, prof))
	} else {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return err
		}
		metrics["wall_s"] = metric{median(pick(plain, func(p passStats) float64 { return p.wall })), "s"}
		metrics["cpu_s"] = metric{median(pick(plain, func(p passStats) float64 { return p.cpu })), "s"}
		metrics["setup_s"] = metric{setupS, "s"}
		metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedPass runs one pass, under the CPU profile and layer timers when
// traced.
func timedPass(inst instance, traced bool, prof *cpuProfile) (passStats, *outcome, error) {
	var ps passStats
	var lt *layerTimes
	var buf bytes.Buffer
	var m0, m1 runtime.MemStats
	if traced {
		lt = &ps.layers
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return ps, nil, err
		}
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := inst.pass(lt)
	ps.wall = time.Since(t0).Seconds()
	ps.cpu = cpuSeconds() - cpu0
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		ps.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		if perr := prof.add(buf.Bytes()); perr != nil && err == nil {
			err = perr
		}
	}
	return ps, out, err
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func pick(ps []passStats, f func(passStats) float64) []float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// layerMetrics derives the per-layer metrics of a traced run. Times the
// benchmark measures around its own calls (kernel cells: Trace/TraceAV
// and RunTrace; fleets: cluster.Run) come from those timers. A pass that
// runs a fleet also reaches dataflow and sim inside cluster.Run, so
// there their time is the profile's CPU time of samples with that
// package on the stack.
func layerMetrics(work workCounts, plain, traced []passStats, prof *cpuProfile) map[string]metric {
	n := float64(len(traced))
	layer := func(f func(layerTimes) float64) float64 {
		return median(pick(traced, func(p passStats) float64 { return f(p.layers) }))
	}
	traceS := layer(func(l layerTimes) float64 { return l.traceS })
	simS := layer(func(l layerTimes) float64 { return l.simS })
	clusterS := layer(func(l layerTimes) float64 { return l.clusterS })
	if clusterS > 0 {
		traceS = prof.cum["dataflow"] / n
		simS = prof.cum["sim"] / n
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := func(v int64) metric { return metric{float64(v), "count"} }
	m := map[string]metric{
		"dataflow.trace_s":         {traceS, "s"},
		"dataflow.lines":           c(work.TraceInsts),
		"sim.run_s":                {simS, "s"},
		"sim.cycles":               c(work.SimCycles),
		"sim.ns_per_cycle":         {per(simS*1e9, float64(work.SimCycles)), "ns"},
		"sim.l2_accesses":          c(work.L2Accesses),
		"sim.ns_per_l2_access":     {per(simS*1e9, float64(work.L2Accesses)), "ns"},
		"serving.memo_hits":        c(work.MemoHits),
		"serving.memo_misses":      c(work.MemoMisses),
		"serving.memo_hit_rate":    {per(float64(work.MemoHits), float64(work.MemoHits+work.MemoMisses)), "frac"},
		"serving.op_cache_misses":  c(work.OpCacheMisses),
		"serving.sim_resets":       c(work.SimResets),
		"serving.ms_per_memo_miss": {per(clusterS*1e3, float64(work.MemoMisses)), "ms"},
		"serving.steps":            c(work.Steps),
		"serving.us_per_step":      {per(clusterS*1e6, float64(work.Steps)), "us"},
		"cluster.run_s":            {clusterS, "s"},
		"cluster.requests":         c(work.Requests),
		"cluster.us_per_request":   {per(clusterS*1e6, float64(work.Requests)), "us"},
		"telemetry.events":         c(work.TelemetryEvent),
		"runtime.gc_frac":          {per(prof.gc, prof.total), "frac"},
		"runtime.alloc_mb":         {median(pick(traced, func(p passStats) float64 { return p.allocMB })), "MB"},
	}
	var stack float64
	for _, pkg := range simStack {
		stack += prof.selfFrac(pkg)
	}
	m["simstack.self_frac"] = metric{stack, "frac"}
	for _, pkg := range append(append([]string(nil), selfPackages...), "other", "runtime") {
		m[pkg+".self_frac"] = metric{prof.selfFrac(pkg), "frac"}
	}
	plainWall := median(pick(plain, func(p passStats) float64 { return p.wall }))
	tracedWall := median(pick(traced, func(p passStats) float64 { return p.wall }))
	m["trace.overhead_frac"] = metric{per(tracedWall-plainWall, plainWall), "frac"}
	return m
}

// timeTable renders where a workload's CPU time goes, by package.
func timeTable(workload string, prof *cpuProfile) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "where %s's time goes (%.2f CPU s profiled)\n", workload, prof.total)
	fmt.Fprintf(&b, "  %-10s %7s %7s\n", "package", "self", "cum")
	pkgs := append(append([]string(nil), selfPackages...), "other", "runtime")
	sort.SliceStable(pkgs, func(i, j int) bool { return prof.self[pkgs[i]] > prof.self[pkgs[j]] })
	for _, p := range pkgs {
		if prof.self[p] == 0 && prof.cum[p] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %6.1f%% %6.1f%%\n", p, 100*prof.selfFrac(p), 100*prof.cumFrac(p))
	}
	var stack float64
	for _, p := range simStack {
		stack += prof.selfFrac(p)
	}
	fmt.Fprintf(&b, "  %-10s %6.1f%%   (sim and its components)\n", "simstack", 100*stack)
	fmt.Fprintf(&b, "  %-10s %6.1f%%   (GC, charged above to its caller)\n", "gc", 100*prof.gc/prof.total)
	return b.String()
}

// workRecord is the line that proves two runs did the same work.
func workRecord(w workCounts) string {
	return fmt.Sprintf("work: sim.cycles=%d sim.l2_accesses=%d dataflow.lines=%d serving.memo_hits=%d serving.memo_misses=%d serving.op_cache_misses=%d serving.sim_resets=%d serving.steps=%d telemetry.events=%d",
		w.SimCycles, w.L2Accesses, w.TraceInsts, w.MemoHits, w.MemoMisses, w.OpCacheMisses, w.SimResets, w.Steps, w.TelemetryEvent)
}
