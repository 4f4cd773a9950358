package main

import (
	"os"
	"sort"
	"testing"

	"repro/internal/goldentest"
)

// goldenOpts is the tiny two-policy grid the CLI golden runs: six
// requests in two sessions at 1/64 scale, two or three decode tokens
// each, with an SLO and the hardware profiler on.
func goldenOpts() cliOpts {
	o := defaultOpts()
	o.streams, o.sessions, o.scale = 6, 2, 64
	o.tokmin, o.tokmax = 2, 3
	o.sloTTFT, o.sloTTFTSet = 400000, true
	o.hwprof = true
	return o
}

// TestCLIGolden pins the CLI's output: the text report byte for byte,
// the -json document by its decoded keys and values (the step-cache
// diagnostics, which depend on process history, only by their keys),
// and the file names a `%` -events-out path produces.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a serving grid")
	}
	o := goldenOpts()
	text := goldentest.CaptureStdout(t, func() error { return run(o) })
	goldentest.CompareBytes(t, "testdata/serve.golden.txt", text)

	o.jsonOut = true
	doc := goldentest.CaptureStdout(t, func() error { return run(o) })
	goldentest.CompareDecoded(t, "testdata/serve.golden.json", doc, "StepCache")

	o = goldenOpts()
	dir := t.TempDir()
	o.eventsOut = dir + "/%.jsonl"
	goldentest.CaptureStdout(t, func() error { return run(o) })
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	goldentest.Compare(t, "testdata/artifacts.golden.json", names)
}
