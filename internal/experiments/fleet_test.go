package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hwprof"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestGridProgressAndHWProfOut: with Options.Log set, a fleet grid and
// a serving grid each print one progress line per cell that carries the
// cell's label, and with HWProfOut set to a `%` path each cell writes
// its own profile report.
func TestGridProgressAndHWProfOut(t *testing.T) {
	base := sim.DefaultConfig()
	base.L2SizeBytes = 1 << 20
	dir := t.TempDir()
	var log bytes.Buffer
	opts := Options{
		Base: &base, Log: &log,
		HWProf: hwprof.Spec{Enabled: true}, HWProfOut: filepath.Join(dir, "%.txt"),
	}

	scn := clusterTestScenario(t)
	routers := []cluster.Policy{{Kind: cluster.RoundRobin}, {Kind: cluster.LeastOutstanding}}
	if _, err := ClusterGrid(scn, []int{2}, routers, DynMGBMA, cluster.OverloadConfig{}, cluster.FaultConfig{}, opts); err != nil {
		t.Fatal(err)
	}
	sscn := serveTestScenario(t)
	if _, err := ServeGrid(sscn, []Policy{Unopt, DynMGBMA}, opts); err != nil {
		t.Fatal(err)
	}
	labels := []string{
		scn.Name + "-n2-round-robin-" + DynMGBMA.Label,
		scn.Name + "-n2-least-outstanding-" + DynMGBMA.Label,
		sscn.Name + "-" + Unopt.Label,
		sscn.Name + "-" + DynMGBMA.Label,
	}

	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != len(labels) {
		t.Fatalf("%d progress lines for %d cells:\n%s", len(lines), len(labels), log.String())
	}
	for _, l := range labels {
		n := 0
		for _, line := range lines {
			if strings.HasPrefix(line, l+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%d progress lines carry label %q:\n%s", n, l, log.String())
		}
		b, err := os.ReadFile(telemetry.CellPath(opts.HWProfOut, l))
		if err != nil {
			t.Errorf("cell %s: %v", l, err)
		} else if !strings.Contains(string(b), "hardware profile") {
			t.Errorf("cell %s wrote no profile report:\n%s", l, b)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != len(labels) {
		t.Errorf("%d report files for %d cells", len(entries), len(labels))
	}
}

// TestDuplicateLabelsRejected: with a `%` output path set, a grid whose
// cells would write the same artifacts fails before any simulation and
// names the label; without one, duplicate cells are legal.
func TestDuplicateLabelsRejected(t *testing.T) {
	scn := clusterTestScenario(t)
	rr := []cluster.Policy{{Kind: cluster.RoundRobin}}
	dir := t.TempDir()
	for _, opts := range []Options{
		{Trace: &telemetry.Spec{EventsOut: filepath.Join(dir, "%.jsonl")}},
		{HWProf: hwprof.Spec{Enabled: true}, HWProfOut: filepath.Join(dir, "%.txt")},
	} {
		_, err := ClusterGrid(scn, []int{2, 2}, rr, Unopt, cluster.OverloadConfig{}, cluster.FaultConfig{}, opts)
		if err == nil || !strings.Contains(err.Error(), "grid/test-n2-round-robin-unopt") {
			t.Errorf("duplicate fleet cells: error %v does not name the label", err)
		}
		_, err = ServeGrid(serveTestScenario(t), []Policy{Unopt, Unopt}, opts)
		if err == nil || !strings.Contains(err.Error(), "grid/test-unopt") {
			t.Errorf("duplicate serve cells: error %v does not name the label", err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected grids wrote %d files", len(entries))
	}
	// Labels that differ only in characters the sanitiser folds collide
	// too.
	err := Options{HWProfOut: "%.txt"}.checkLabels([]string{"a+b", "a-b"})
	if err == nil {
		t.Error("labels sanitising to the same slug accepted")
	}
	if err := (Options{HWProfOut: "one.txt"}).checkLabels([]string{"a", "a"}); err != nil {
		t.Errorf("duplicates without a %% path rejected: %v", err)
	}
}
