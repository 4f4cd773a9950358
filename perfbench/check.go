package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// expectedJSON holds the simulated results of the committed seeds,
// written by --record.
//
//go:embed expected.json
var expectedJSON []byte

// recordSeeds are the committed seeds whose fleet results are stored.
// Any other seed is checked by conservation alone.
const recordSeeds = 16

// expected is the stored simulated output of every workload.
type expected struct {
	// Kernel is the per-cell result of the seed-independent kernel cells.
	Kernel []cellResult `json:"kernel"`
	// Fleets maps a fleet workload and a seed to its result.
	Fleets map[string]map[string]fleetResult `json:"fleets"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// check compares one pass's outcome with the stored results: kernel
// cells cell by cell, a fleet with the result stored for its workload and
// seed or, for a seed without one, with the conservation laws alone. It
// returns how many of the pass's operations failed and why.
func check(e *expected, workload string, seed uint64, out *outcome) (int, []string) {
	failed, problems := checkKernel(e.Kernel, out.Cells)
	if out.Fleet == nil {
		return failed, problems
	}
	bad := append([]string(nil), out.conservation...)
	if want, ok := e.Fleets[workload][strconv.FormatUint(seed, 10)]; ok && *out.Fleet != want {
		bad = append(bad, fmt.Sprintf("simulated %+v, expected %+v", *out.Fleet, want))
	}
	if len(bad) > 0 {
		failed++
		problems = append(problems, bad...)
	}
	return failed, problems
}

// checkKernel counts the cells whose cycles or counters differ from the
// stored ones.
func checkKernel(want, got []cellResult) (int, []string) {
	var problems []string
	failed := 0
	for i, g := range got {
		var diffs []string
		switch {
		case i >= len(want) || want[i].Name != g.Name:
			diffs = append(diffs, "no stored result")
		default:
			if g.Cycles != want[i].Cycles {
				diffs = append(diffs, fmt.Sprintf("cycles %d, expected %d", g.Cycles, want[i].Cycles))
			}
			for k, v := range want[i].Counters {
				if gv, ok := g.Counters[k]; !ok || gv != v {
					diffs = append(diffs, fmt.Sprintf("%s %d, expected %d", k, gv, v))
				}
			}
		}
		if len(diffs) > 0 {
			failed++
			problems = append(problems, fmt.Sprintf("cell %s: %s", g.Name, strings.Join(diffs, "; ")))
		}
	}
	return failed, problems
}

// record rewrites the expected-results file from one fresh pass of each
// workload on every committed seed. It refuses a pass that breaks
// conservation.
func record(path string) error {
	e := expected{Fleets: map[string]map[string]fleetResult{}}
	for _, w := range workloadNames {
		for s := uint64(0); s < recordSeeds; s++ {
			inst, err := newInstance(w, s)
			if err != nil {
				return err
			}
			out, err := inst.pass(nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if len(out.conservation) > 0 {
				return fmt.Errorf("%s seed %d: %s", w, s, strings.Join(out.conservation, "; "))
			}
			if out.Cells != nil {
				e.Kernel = out.Cells
			}
			if e.Fleets[w] == nil {
				e.Fleets[w] = map[string]fleetResult{}
			}
			e.Fleets[w][strconv.FormatUint(s, 10)] = *out.Fleet
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w, s)
		}
	}
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// paperContext compares the kernel's dynmg+BMA speedup over unopt in
// each regime with the paper's headline numbers.
func paperContext(out *outcome) string {
	cycles := map[string]int64{}
	for _, c := range out.Cells {
		cycles[c.Name] = c.Cycles
	}
	paper := map[string]float64{"fig7": 1.26, "fig9": 1.58}
	var parts []string
	for _, regime := range []string{"fig7", "fig9"} {
		logSum, n := 0.0, 0
		for _, op := range newKernel().traces {
			if op.regime == regime {
				base, opt := cycles[op.name()+"/unopt"], cycles[op.name()+"/dynmg+BMA"]
				logSum += math.Log(float64(base) / float64(opt))
				n++
			}
		}
		parts = append(parts, fmt.Sprintf("%s regime %.3fx (paper %.2fx)", regime, math.Exp(logSum/float64(n)), paper[regime]))
	}
	return fmt.Sprintf("paper context: dynmg+BMA speedup over unopt, geomean over the regime's cells: %s; "+
		"scaled-down model (Fig. 7 1/%d, Fig. 9 1/%d), not validated against hardware",
		strings.Join(parts, ", "), fig7Scale, fig9Scale)
}
