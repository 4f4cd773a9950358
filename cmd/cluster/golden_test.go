package main

import (
	"os"
	"sort"
	"testing"

	"repro/internal/goldentest"
)

// goldenOpts is the tiny fleet every CLI golden runs: six requests in
// two sessions at 1/64 scale, two or three decode tokens each.
func goldenOpts() cliOpts {
	o := defaultOpts()
	o.streams, o.sessions, o.scale = 6, 2, 64
	o.tokmin, o.tokmax = 2, 3
	return o
}

// goldenModes covers every grid mode of the CLI: the standard node ×
// router matrix (with an SLO and the hardware profiler), the overload,
// prefix and fault grids.
var goldenModes = []struct {
	name string
	mut  func(*cliOpts)
}{
	{"standard", func(o *cliOpts) {
		o.nodes, o.routers = "1,2", "round-robin,least-outstanding"
		o.sloTTFT, o.sloTTFTSet = 400000, true
		o.hwprof = true
	}},
	{"overload", func(o *cliOpts) {
		o.nodes, o.routers = "2", "least-outstanding"
		o.rates = "1,2"
		o.sched, o.kvcap, o.preempt, o.shed = "chunked", 200, "newest", "40"
	}},
	{"prefix", func(o *cliOpts) {
		o.nodes, o.routers = "2", "affinity,prefix-affinity"
		o.prefixCaches, o.sessionSweep = "0,4096", "1,2"
		o.sched, o.sessionDepth = "chunked", 2
	}},
	{"fault", func(o *cliOpts) {
		o.nodes, o.routers = "2", "least-outstanding"
		o.faultMTBFs, o.faultMTTRs = "200000", "50000"
	}},
}

// TestCLIGolden pins the CLI's output in every grid mode: the text
// report byte for byte, the -json document by its decoded keys and
// values (the step-cache diagnostics, which depend on process history,
// only by their keys), and the file names a `%` -events-out path
// produces.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every grid mode")
	}
	artifacts := map[string][]string{}
	for _, m := range goldenModes {
		o := goldenOpts()
		m.mut(&o)
		text := goldentest.CaptureStdout(t, func() error { return run(o) })
		goldentest.CompareBytes(t, "testdata/"+m.name+".golden.txt", text)

		o.jsonOut = true
		doc := goldentest.CaptureStdout(t, func() error { return run(o) })
		goldentest.CompareDecoded(t, "testdata/"+m.name+".golden.json", doc, "StepCache")

		o = goldenOpts()
		m.mut(&o)
		dir := t.TempDir()
		o.eventsOut = dir + "/%.jsonl"
		goldentest.CaptureStdout(t, func() error { return run(o) })
		artifacts[m.name] = dirNames(t, dir)
	}
	goldentest.Compare(t, "testdata/artifacts.golden.json", artifacts)
}

// dirNames lists the file names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}
