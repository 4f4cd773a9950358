// The cluster-scale grid: the routed multi-node fleet simulator run
// across a router-policy × node-count matrix, the way ServeGrid runs
// one scenario across the throttle/arbiter matrix. Its cells run on
// RunFleetCells (fleet.go).

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
)

// ClusterGridResult is one scenario evaluated across a node-count ×
// router-policy matrix under one cache policy.
type ClusterGridResult struct {
	Scenario   cluster.Scenario
	NodeCounts []int
	Routers    []cluster.Policy
	Pol        Policy
	// Overload is the router overload-control configuration every
	// cell ran (zero value: disabled).
	Overload cluster.OverloadConfig
	// Faults is the node-failure schedule every cell ran (zero value:
	// fault-free).
	Faults cluster.FaultConfig
	// Metrics[i][j] is NodeCounts[i] under Routers[j].
	Metrics [][]*cluster.Metrics
}

// ClusterGrid runs one fleet scenario across every (node count,
// router policy) cell of the matrix under a single cache policy, router
// overload control ov and node-failure schedule ft (zero values:
// disabled), and collects the fleet metrics in matrix order. Fault node
// indices are fleet-relative, so ft must be valid for every count in
// nodeCounts (callers sweeping a single count, as the CLI's -faults
// mode does, only need it valid there). Deterministic at any
// Options.Parallel; Options.Scale divides the L2 size (see
// RunFleetCells).
func ClusterGrid(scn cluster.Scenario, nodeCounts []int, routers []cluster.Policy, pol Policy,
	ov cluster.OverloadConfig, ft cluster.FaultConfig, opts Options) (*ClusterGridResult, error) {
	if len(nodeCounts) == 0 || len(routers) == 0 {
		return nil, fmt.Errorf("cluster grid: empty node-count or router list")
	}
	cells := make([]FleetCell, 0, len(nodeCounts)*len(routers))
	for _, n := range nodeCounts {
		for _, r := range routers {
			cells = append(cells, FleetCell{
				Label:    fmt.Sprintf("%s-n%d-%s-%s", scn.Name, n, r, pol.Label),
				Scenario: scn, Nodes: n, Router: r, Pol: pol, Overload: ov, Faults: ft,
			})
		}
	}
	metrics, err := RunFleetCells(cells, opts)
	if err != nil {
		return nil, err
	}
	out := &ClusterGridResult{Scenario: scn, NodeCounts: nodeCounts, Routers: routers, Pol: pol, Overload: ov, Faults: ft}
	out.Metrics = make([][]*cluster.Metrics, len(nodeCounts))
	for i := range nodeCounts {
		out.Metrics[i] = metrics[i*len(routers) : (i+1)*len(routers)]
	}
	return out, nil
}

// Render formats the grid as an aligned per-cell table of the
// headline fleet metrics. Cells run with the hardware profiler gain a
// bottleneck-class column.
func (g *ClusterGridResult) Render() string {
	hw := false
	for _, row := range g.Metrics {
		for _, m := range row {
			if m.HW != nil {
				hw = true
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d requests, %d tokens, batch %d/node, cache policy %s\n\n",
		g.Scenario.Name, len(g.Scenario.Requests), g.Scenario.TotalTokens(),
		g.Scenario.MaxBatch, g.Pol.Label)
	fmt.Fprintf(&b, "%-6s %-18s %12s %10s %10s %10s %10s %10s %10s %10s",
		"nodes", "router", "tok/kcycle", "makespan", "e2e-p50", "e2e-p95", "e2e-p99", "ttft-p95", "queue-p99", "imbalance")
	if hw {
		fmt.Fprintf(&b, "  %s", "bottleneck")
	}
	b.WriteByte('\n')
	for i, n := range g.NodeCounts {
		for j, r := range g.Routers {
			m := g.Metrics[i][j]
			fmt.Fprintf(&b, "%-6d %-18s %12.4f %10d %10.0f %10.0f %10.0f %10.0f %10.0f %10.3f",
				n, r.String(), m.FleetTokensPerKCycle, m.Makespan,
				m.E2ELatency.P50, m.E2ELatency.P95, m.E2ELatency.P99,
				m.TTFT.P95, m.QueueDelay.P99, m.LoadImbalance)
			if hw {
				class := "-"
				if m.HW != nil {
					class = m.HW.ClassName
				}
				fmt.Fprintf(&b, "  %s", class)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
