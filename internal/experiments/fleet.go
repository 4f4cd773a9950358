// The fleet-grid runner: every cluster-based grid (ClusterGrid,
// OverloadGrid, PrefixGrid, FaultGrid) is a list of FleetCells run by
// RunFleetCells. A grid builder applies its axis mutation to each cell
// (node count and router, arrival rate and overload combo, session
// count and prefix-cache capacity, failure regime and recovery policy),
// names it, and slices the flat result list for its own Render. A cell
// is one complete fleet simulation; cells are independent and
// deterministic, so the runner fans them out across the shared bounded
// worker pool with results in input order — and each cell's own node
// fan-out is bit-reproducible at any width, so nesting the two levels
// of parallelism never changes a number.

package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// FleetCell names one fleet simulation: a scenario on a node count
// under a router, a cache policy, and the router's overload and fault
// configurations.
type FleetCell struct {
	// Label names the cell: its `%` artifact paths, its errors and its
	// progress line.
	Label    string
	Scenario cluster.Scenario
	Nodes    int
	Router   cluster.Policy
	// Pol is the cache-level (throttle, arbiter) policy every node
	// runs.
	Pol Policy
	// Overload is the router's overload-control configuration (zero
	// value: disabled — the pre-overload router).
	Overload cluster.OverloadConfig
	// Faults is the cell's node-failure schedule (zero value: a
	// fault-free fleet — the exact pre-fault simulation).
	Faults cluster.FaultConfig
}

// RunFleetCells executes every fleet cell across the bounded worker
// pool and returns the metrics in input order. Options.Scale divides
// the L2 size exactly like the figure harnesses. The Options.Parallel
// budget is split between the two nested fan-outs — cells on the outer
// pool, node engines inside each cell — so a wide grid never
// oversubscribes the CPU with cells × nodes goroutines; both levels
// are order-stable, so the split never changes a number. Each cell
// exports its telemetry and hardware-profile artifacts under its label
// and, with Options.Log set, prints one progress line.
func RunFleetCells(cells []FleetCell, opts Options) ([]*cluster.Metrics, error) {
	labels := make([]string, len(cells))
	for i := range cells {
		labels[i] = cells[i].Label
	}
	if err := opts.checkLabels(labels); err != nil {
		return nil, err
	}
	outer := min(opts.parallel(), len(cells))
	inner := 1
	if outer > 0 && opts.parallel()/outer > 1 {
		inner = opts.parallel() / outer
	}
	results := make([]*cluster.Metrics, len(cells))
	err := pool.ForEach(len(cells), outer, func(i int) error {
		c := &cells[i]
		col := opts.Trace.Collector()
		m, err := cluster.Run(opts.cellConfig(c.Pol), c.Scenario, c.Nodes, c.Router, cluster.Options{
			Parallel: inner, StepCache: opts.StepCache, Overload: c.Overload, Faults: c.Faults,
			Telemetry: col, HWProf: opts.HWProf,
		})
		if err == nil {
			var report func() string
			if m.HW != nil {
				report = m.HW.Render
			}
			err = opts.writeArtifacts(c.Label, col, report)
		}
		if err != nil {
			return fmt.Errorf("fleet cell %s: %w", c.Label, err)
		}
		var preempts int64
		for _, nm := range m.PerNode {
			preempts += nm.Preemptions
		}
		opts.logCell(c.Label, m.StepCache,
			"tok/kcyc=%.4f imb=%.3f e2e-p99=%.0f ttft-p95=%.0f preempt=%d shed=%d fwd=%d drop=%d failures=%d redisp=%d pfx-rate=%.2f pfx-saved=%d",
			m.FleetTokensPerKCycle, m.LoadImbalance, m.E2ELatency.P99, m.TTFT.P95,
			preempts, m.Shed, m.Forwarded, m.Dropped, m.Failures, m.Redispatched,
			m.PrefixHitRate, m.PrefillTokensSaved)
		results[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// cellConfig is one cell's simulator configuration: the base
// configuration with the L2 divided by the scale and the cell's
// throttle and arbiter.
func (o Options) cellConfig(pol Policy) sim.Config {
	cfg := o.base()
	cfg.L2SizeBytes /= o.scale()
	cfg.Throttle = pol.Throttle
	cfg.Arbiter = pol.Arbiter
	return cfg
}

// checkLabels rejects, before any simulation, a grid in which two
// cells would write the same `%` artifact: with a placeholder path set,
// cells whose sanitised labels collide would overwrite each other's
// files.
func (o Options) checkLabels(labels []string) error {
	paths := []string{o.HWProfOut}
	if o.Trace != nil {
		paths = append(paths, o.Trace.TraceOut, o.Trace.EventsOut, o.Trace.TimeseriesOut)
	}
	placeholder := false
	for _, p := range paths {
		placeholder = placeholder || strings.Contains(p, "%")
	}
	if !placeholder {
		return nil
	}
	seen := make(map[string]string, len(labels))
	for _, l := range labels {
		slug := telemetry.SanitizeLabel(l)
		if prev, ok := seen[slug]; ok {
			return fmt.Errorf("cells %q and %q would write the same %% artifacts (%q); remove the duplicate grid entry", prev, l, slug)
		}
		seen[slug] = l
	}
	return nil
}

// writeArtifacts writes one cell's telemetry (when recording) and its
// rendered hardware-profile report (when HWProfOut is set and the cell
// was profiled, i.e. report is non-nil), `%` placeholders expanded to
// the cell label.
func (o Options) writeArtifacts(label string, col *telemetry.Collector, report func() string) error {
	if col != nil {
		if err := o.Trace.Export(label, col); err != nil {
			return err
		}
	}
	if o.HWProfOut == "" || report == nil {
		return nil
	}
	if err := os.WriteFile(telemetry.CellPath(o.HWProfOut, label), []byte(report()), 0o644); err != nil {
		return fmt.Errorf("hwprof-out: %w", err)
	}
	return nil
}

var logMu sync.Mutex

// logCell prints one cell's progress line — its label, the runner's
// key=value metrics and the step-cache diagnostics — when Options.Log
// is set.
func (o Options) logCell(label string, sc serving.StepCacheStats, format string, args ...any) {
	if o.Log == nil {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(o.Log, "%-44s "+format+" memo=%d/%d optrace=%d/%d resets=%d\n",
		append(append([]any{label}, args...),
			sc.MemoHits, sc.MemoHits+sc.MemoMisses,
			sc.OpCacheHits, sc.OpCacheHits+sc.OpCacheMisses, sc.SimResets)...)
}
