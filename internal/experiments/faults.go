// The fault grid: availability-vs-recovery curves for the
// fault-tolerance study. One fleet workload is run under a matrix of
// generated failure regimes — MTBF × MTTR, each cell's crash schedule
// drawn deterministically from a fixed seed — and each regime is
// evaluated twice: recovering in-flight requests by redispatch versus
// dropping them with their node. Goodput-under-SLO per cell is the
// headline: as failures grow more frequent (MTBF down) or longer
// (MTTR up), the grid shows how much of the lost service each
// recovery policy buys back.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/serving"
)

// FaultGridResult is one workload evaluated across an MTBF × MTTR
// matrix of generated failure regimes, each cell under both recovery
// policies.
type FaultGridResult struct {
	Config cluster.ScenarioConfig
	// MTBFs and MTTRs are the regime axes in cycles (mean time between
	// failures / mean time to repair of the generated schedules).
	MTBFs  []float64
	MTTRs  []float64
	Seed   uint64
	Count  int
	Detect int64
	Nodes  int
	Router cluster.Policy
	Pol    Policy
	// SLO is the per-request deadline pair goodput is judged under.
	SLO serving.SLO
	// Metrics[i][j] is MTBFs[i] × MTTRs[j], recovered by redispatch
	// ([0]) and by drop ([1]).
	Metrics [][][2]*cluster.Metrics
}

// FaultGrid sweeps MTBF × MTTR × recovery policy for one fleet
// workload: every regime's crash schedule is generated from the same
// seed (so the drop and redispatch runs of a cell face the identical
// failures), detection latency is held fixed, and goodput-under-SLO
// is collected per cell. Deterministic at any Options.Parallel.
func FaultGrid(cfg cluster.ScenarioConfig, mtbfs, mttrs []float64, seed uint64, count int, detect int64,
	nodes int, router cluster.Policy, pol Policy, slo serving.SLO, opts Options) (*FaultGridResult, error) {
	if len(mtbfs) == 0 || len(mttrs) == 0 {
		return nil, fmt.Errorf("fault grid: empty MTBF or MTTR list")
	}
	cells := make([]FleetCell, 0, 2*len(mtbfs)*len(mttrs))
	for _, mtbf := range mtbfs {
		for _, mttr := range mttrs {
			scfg := cfg
			scfg.Name = fmt.Sprintf("%s/mtbf%g-mttr%g", cfg.Name, mtbf, mttr)
			scn, err := cluster.NewScenario(scfg)
			if err != nil {
				return nil, fmt.Errorf("fault grid %s: %w", scfg.Name, err)
			}
			for _, recovery := range []string{"redispatch", "drop"} {
				ft := cluster.FaultConfig{
					Gen:           &cluster.FaultGen{Seed: seed, MTBF: mtbf, MTTR: mttr, Count: count},
					DetectLatency: detect,
					Drop:          recovery == "drop",
				}
				if err := ft.Validate(); err != nil {
					return nil, fmt.Errorf("fault grid mtbf=%g mttr=%g: %w", mtbf, mttr, err)
				}
				cells = append(cells, FleetCell{
					Label:    fmt.Sprintf("%s-n%d-%s", scfg.Name, nodes, recovery),
					Scenario: scn, Nodes: nodes, Router: router, Pol: pol, Faults: ft,
				})
			}
		}
	}
	metrics, err := RunFleetCells(cells, opts)
	if err != nil {
		return nil, err
	}
	out := &FaultGridResult{
		Config: cfg, MTBFs: mtbfs, MTTRs: mttrs, Seed: seed, Count: count, Detect: detect,
		Nodes: nodes, Router: router, Pol: pol, SLO: slo,
	}
	out.Metrics = make([][][2]*cluster.Metrics, len(mtbfs))
	for i := range mtbfs {
		out.Metrics[i] = make([][2]*cluster.Metrics, len(mttrs))
		for j := range mttrs {
			k := 2 * (i*len(mttrs) + j)
			out.Metrics[i][j] = [2]*cluster.Metrics{metrics[k], metrics[k+1]}
		}
	}
	return out, nil
}

// Render formats the grid as an aligned per-regime table comparing
// both recovery policies' goodput.
func (g *FaultGridResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d requests, %d nodes, router %s, cache policy %s, gen seed %d count %d detect %d, SLO ttft<=%d tbt<=%.0f\n\n",
		g.Config.Name, g.Config.NumRequests, g.Nodes, g.Router, g.Pol.Label,
		g.Seed, g.Count, g.Detect, g.SLO.TTFTCycles, g.SLO.TBTCycles)
	fmt.Fprintf(&b, "%-10s %-10s %8s %12s %12s %8s %8s %8s %10s\n",
		"mtbf", "mttr", "failures", "redispatch", "drop", "redisp", "dropped", "lost", "downtime")
	for i, mtbf := range g.MTBFs {
		for j, mttr := range g.MTTRs {
			re, dr := g.Metrics[i][j][0], g.Metrics[i][j][1]
			fmt.Fprintf(&b, "%-10g %-10g %8d %12.4f %12.4f %8d %8d %8d %10d\n",
				mtbf, mttr, re.Failures,
				re.Goodput(g.SLO).GoodputPerKCycle, dr.Goodput(g.SLO).GoodputPerKCycle,
				re.Redispatched, dr.Dropped, dr.LostTokens, re.DowntimeCycles)
		}
	}
	return b.String()
}
