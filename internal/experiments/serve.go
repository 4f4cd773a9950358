// The serving-scenario grid: the serving engine run across the
// paper's throttle/arbiter policy matrix, the way RunFig7/8/9 run the
// single-operator cells. A serving cell is one complete
// continuous-batching scenario under one policy; cells are
// independent and deterministic, so the grid fans out across the same
// bounded worker pool as the figure harnesses with results in stable
// matrix order.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pool"
	"repro/internal/serving"
)

// ServeGridResult is one scenario evaluated across a policy list.
type ServeGridResult struct {
	Scenario serving.Scenario
	Policies []Policy
	Metrics  []*serving.Metrics // parallel to Policies
}

// ServeGrid runs one serving scenario across every policy in the
// matrix and collects the serving metrics per policy. The scenario's
// fixed-seed arrival process and the deterministic engine make every
// cell reproducible; the parallel fan-out preserves matrix order.
// Options.Scale divides the L2 size exactly like the figure harnesses;
// prompt lengths are explicit in the Scenario, which the caller scales
// when building it. Cells run on serving.RunWith rather than as 1-node
// fleets: a fleet would add router events to the traces and report a
// fleet rather than a node hardware profile.
func ServeGrid(scn serving.Scenario, policies []Policy, opts Options) (*ServeGridResult, error) {
	labels := make([]string, len(policies))
	for i, p := range policies {
		labels[i] = scn.Name + "-" + p.Label
	}
	if err := opts.checkLabels(labels); err != nil {
		return nil, err
	}
	metrics := make([]*serving.Metrics, len(policies))
	err := pool.ForEach(len(policies), opts.parallel(), func(i int) error {
		label := labels[i]
		ropts := serving.RunOptions{StepCache: opts.StepCache, HWProf: opts.HWProf}
		col := opts.Trace.Collector()
		if col != nil {
			// A serving cell is a 1-node fleet for trace purposes.
			ropts.Recorder = col.Node(0)
			ropts.SampleEvery = col.SampleEvery()
		}
		m, err := serving.RunWith(opts.cellConfig(policies[i]), scn, ropts)
		if err == nil {
			var report func() string
			if m.HW != nil {
				report = func() string { return m.HW.Render(label) }
			}
			err = opts.writeArtifacts(label, col, report)
		}
		if err != nil {
			return fmt.Errorf("serve cell %s: %w", label, err)
		}
		opts.logCell(label, m.StepCache,
			"tok/kcyc=%.4f tokens=%d steps=%d makespan=%d lat-p50=%.0f lat-p99=%.0f ttft-p95=%.0f preempt=%d pfx-rate=%.2f pfx-saved=%d",
			m.TokensPerKCycle, m.Tokens, m.Steps, m.Makespan, m.TokenLatency.P50, m.TokenLatency.P99,
			m.TTFT.P95, m.Preemptions, m.PrefixHitRate, m.PrefillTokensSaved)
		metrics[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ServeGridResult{Scenario: scn, Policies: policies, Metrics: metrics}, nil
}

// Render formats the grid as an aligned per-policy table of the
// headline serving metrics. Cells run with the hardware profiler gain
// a bottleneck-class column.
func (g *ServeGridResult) Render() string {
	hw := false
	for _, m := range g.Metrics {
		if m.HW != nil {
			hw = true
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d requests, %d tokens, batch %d\n\n",
		g.Scenario.Name, len(g.Scenario.Requests), g.Scenario.TotalTokens(), g.Scenario.MaxBatch)
	fmt.Fprintf(&b, "%-14s %12s %10s %10s %10s %10s %10s %10s %10s",
		"policy", "tok/kcycle", "makespan", "lat-p50", "lat-p95", "lat-p99", "ttft-p95", "queue-p99", "occupancy")
	if hw {
		fmt.Fprintf(&b, "  %s", "bottleneck")
	}
	b.WriteByte('\n')
	for i, p := range g.Policies {
		m := g.Metrics[i]
		fmt.Fprintf(&b, "%-14s %12.4f %10d %10.0f %10.0f %10.0f %10.0f %10.0f %10.2f",
			p.Label, m.TokensPerKCycle, m.Makespan,
			m.TokenLatency.P50, m.TokenLatency.P95, m.TokenLatency.P99,
			m.TTFT.P95, m.QueueDelay.P99, m.MeanBatchOccupancy)
		if hw {
			class := "-"
			if m.HW != nil {
				class = m.HW.ClassName
			}
			fmt.Fprintf(&b, "  %s", class)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SchedLabel names one scheduler configuration the way the CLIs report
// it: "decode-only", "prefill-first", "chunked/32", with a "/kv<N>"
// suffix when KV capacity is bounded.
func SchedLabel(s serving.SchedulerConfig) string {
	label := s.Policy.String()
	if s.Policy == serving.SchedChunked {
		label = fmt.Sprintf("chunked/%d", s.ChunkTokens)
	}
	if s.KVCapTokens > 0 {
		label += fmt.Sprintf("/kv%d", s.KVCapTokens)
	}
	return label
}
