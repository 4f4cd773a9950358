package telemetry

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestKindString: every kind has a stable wire name and out-of-range
// values degrade to "unknown" instead of panicking.
func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindArrive: "arrive", KindRoute: "route", KindForward: "forward",
		KindRetry: "retry", KindShed: "shed", KindDrop: "drop",
		KindAdmit: "admit", KindPrefixHit: "prefix-hit", KindPrefixMiss: "prefix-miss",
		KindPrefill: "prefill", KindDecode: "decode", KindPreempt: "preempt",
		KindRetire: "retire", KindSample: "sample",
	}
	for k, name := range want {
		if got := k.String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, name)
		}
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Errorf("out-of-range kind = %q, want unknown", got)
	}
}

// TestBufferCopiesSnapshots: Record must deep-copy the Load/Backlog
// slices so the router can reuse its scratch buffers between events.
func TestBufferCopiesSnapshots(t *testing.T) {
	var b Buffer
	scratch := []int64{1, 2}
	b.Record(Event{Kind: KindRoute, Load: scratch, Backlog: scratch})
	scratch[0] = 99
	ev := b.Events()[0]
	if ev.Load[0] != 1 || ev.Backlog[0] != 1 {
		t.Errorf("recorded snapshot aliases caller scratch: %v / %v", ev.Load, ev.Backlog)
	}
}

// TestCollectorMergeOrder: the merged stream is ordered by cycle, with
// the router buffer first among same-cycle events and each buffer's
// append order preserved — the total order that makes trace bytes
// independent of goroutine scheduling.
func TestCollectorMergeOrder(t *testing.T) {
	c := NewCollector(0)
	// Create all recorders up front, as the engines do.
	router := c.Router()
	n0 := c.Node(0)
	n1 := c.Node(1)
	n1.Record(Event{Kind: KindDecode, Cycle: 10, Req: 3})
	n0.Record(Event{Kind: KindAdmit, Cycle: 10, Req: 2})
	router.Record(Event{Kind: KindRoute, Cycle: 10, Req: 1})
	router.Record(Event{Kind: KindRoute, Cycle: 5, Req: 0})
	n0.Record(Event{Kind: KindDecode, Cycle: 20, Req: 2})
	events := c.Events()
	type key struct {
		k    Kind
		node int
		req  int
	}
	var got []key
	for _, ev := range events {
		got = append(got, key{ev.Kind, ev.Node, ev.Req})
	}
	want := []key{
		{KindRoute, -1, 0}, // cycle 5
		{KindRoute, -1, 1}, // cycle 10: router before nodes
		{KindAdmit, 0, 2},  // cycle 10: node 0 before node 1
		{KindDecode, 1, 3}, // cycle 10
		{KindDecode, 0, 2}, // cycle 20
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if c.Nodes() != 2 {
		t.Errorf("Nodes() = %d, want 2", c.Nodes())
	}

	// A seeded random stream with heavy cycle ties across the router
	// and several nodes, whose node buffers are not cycle-monotonic
	// (gauge samples stamped on a grid boundary behind events already
	// recorded), must merge exactly as a stable sort on Cycle of the
	// router-then-nodes concatenation.
	rng := rand.New(rand.NewSource(7))
	c = NewCollector(20)
	recs := []Recorder{c.Router()}
	for i := 0; i < 4; i++ {
		recs = append(recs, c.Node(i))
	}
	clock := make([]int64, len(recs))
	for seq := 0; seq < 2000; seq++ {
		b := rng.Intn(len(recs))
		clock[b] += 10 * int64(rng.Intn(3))
		ev := Event{Kind: KindDecode, Cycle: clock[b], Req: seq}
		switch {
		case b == 0:
			ev.Kind, ev.Load = KindRoute, []int64{int64(seq), clock[b]}
		case rng.Intn(4) == 0:
			// Stamped on the sampling grid at or behind the clock.
			ev.Kind, ev.Cycle = KindSample, max(0, clock[b]/20*20-20*int64(rng.Intn(2)))
		}
		recs[b].Record(ev)
	}
	ref := append([]Event(nil), c.router.Events()...)
	for _, nb := range c.nodes {
		ref = append(ref, nb.Events()...)
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].Cycle < ref[j].Cycle })
	if merged := c.Events(); !reflect.DeepEqual(merged, ref) {
		for i := range ref {
			if i >= len(merged) || !reflect.DeepEqual(merged[i], ref[i]) {
				t.Fatalf("random stream: merged event %d differs from the stable-sort reference", i)
			}
		}
		t.Fatalf("random stream: merged %d events, want %d", len(merged), len(ref))
	}
}

// TestSanitizeLabel: labels become filesystem-safe slugs.
func TestSanitizeLabel(t *testing.T) {
	cases := map[string]string{
		"mix/16req/seed1-n2-least-outstanding": "mix-16req-seed1-n2-least-outstanding",
		"Unopt":                                "unopt",
		"a b/c":                                "a-b-c",
		"--x--":                                "x",
		"v1.2_ok":                              "v1.2_ok",
		"":                                     "",
		"///":                                  "",
	}
	for in, want := range cases {
		if got := SanitizeLabel(in); got != want {
			t.Errorf("SanitizeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCellPath: % placeholders expand to the sanitised label;
// placeholder-free patterns pass through untouched.
func TestCellPath(t *testing.T) {
	if got := CellPath("out/%.json", "A/B"); got != "out/a-b.json" {
		t.Errorf("CellPath = %q", got)
	}
	if got := CellPath("out/fixed.json", "A/B"); got != "out/fixed.json" {
		t.Errorf("placeholder-free CellPath = %q", got)
	}
}

// TestSpecNilSafety: a nil *Spec is fully inert — disabled, valid, and
// produces no collector — so call sites never need their own nil
// checks.
func TestSpecNilSafety(t *testing.T) {
	var s *Spec
	if s.Enabled() {
		t.Error("nil spec reports enabled")
	}
	if err := s.Validate(true); err != nil {
		t.Errorf("nil spec fails validation: %v", err)
	}
	if s.Collector() != nil {
		t.Error("nil spec produced a collector")
	}
}

// TestSpecValidate: each misconfiguration is rejected with a message
// naming the offending flag, and a well-formed spec passes.
func TestSpecValidate(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name      string
		spec      Spec
		multiCell bool
		want      string // "" = must pass
	}{
		{"disabled zero spec", Spec{}, true, ""},
		{"negative sample-every", Spec{SampleEvery: -1}, false, "-sample-every"},
		{"sample-every without output", Spec{SampleEvery: 10}, false, "no output path"},
		{"timeseries without sample-every", Spec{TimeseriesOut: dir + "/ts.csv"}, false, "-sample-every"},
		{"multi-cell without placeholder", Spec{TraceOut: dir + "/t.json"}, true, "placeholder"},
		{"multi-cell with placeholder", Spec{TraceOut: dir + "/t-%.json"}, true, ""},
		{"unwritable dir", Spec{EventsOut: dir + "/nope/e.jsonl"}, false, "not writable"},
		{"well-formed", Spec{
			TraceOut: dir + "/t.json", EventsOut: dir + "/e.jsonl",
			TimeseriesOut: dir + "/ts.csv", SampleEvery: 100,
		}, false, ""},
	}
	for _, c := range cases {
		err := c.spec.Validate(c.multiCell)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSpecExport: Export writes every configured artifact, expanding
// the % placeholder with the sanitised cell label, and leaves the
// probe-free directory clean otherwise.
func TestSpecExport(t *testing.T) {
	dir := t.TempDir()
	s := &Spec{
		TraceOut:      filepath.Join(dir, "trace-%.json"),
		EventsOut:     filepath.Join(dir, "events-%.jsonl"),
		TimeseriesOut: filepath.Join(dir, "ts-%.csv"),
		SampleEvery:   10,
	}
	col := s.Collector()
	if col == nil {
		t.Fatal("enabled spec produced no collector")
	}
	rec := col.Node(0)
	rec.Record(Event{Kind: KindArrive, Cycle: 1, Req: 0, Session: -1, Slot: -1, Target: -1})
	rec.Record(Event{Kind: KindSample, Cycle: 10, Req: -1, Session: -1, Slot: -1, Target: -1,
		Gauges: Gauges{Outstanding: 4}})
	if err := s.Export("Cell/One", col); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace-cell-one.json", "events-cell-one.jsonl", "ts-cell-one.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact: %v", err)
			continue
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}
