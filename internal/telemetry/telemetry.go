// Package telemetry is the deterministic observability layer of the
// simulator: a cycle-timestamped event bus threaded through the
// serving engine and the cluster router, a per-node gauge sampler, and
// exporters for Chrome trace-event JSON (Perfetto), JSONL event logs
// and CSV time series.
//
// Recording is opt-in and nil-safe: every emission site in the engine
// and router is guarded by a nil check on the Recorder, so with no
// recorder attached the simulators take the exact same branches and
// produce bit-identical metrics ("zero-cost and bit-inert when
// disabled"). With a recorder attached, events are appended to
// per-node buffers — each engine's buffer is touched only by the
// goroutine advancing that engine — and merged into a single
// deterministic stream by Collector.Events, so trace bytes are
// byte-reproducible at any -parallel width.
//
// Steps replayed from the step memo (serving.StepCacheOn) never
// re-run the analytical model, but the engine still emits their
// decode/prefill events from the replayed (cycles, counters) pair
// with MemoHit set: traces are complete, and a memo-hit step is
// distinguishable from an executed one. Like the StepCache metrics
// block, the MemoHit annotation is a diagnostic that sits outside the
// bit-identity guarantees — concurrently advancing nodes race to
// publish shared memo entries, so which steps replay depends on
// fan-out timing. Every other event byte is reproducible at any
// parallelism; StripMemoHits normalises a stream for byte comparison
// (the serving.StepCacheNoMemo mode needs no normalisation at all).
package telemetry

import (
	"cmp"
	"slices"
)

// Kind enumerates the lifecycle event types. The zero value is
// KindArrive; every recorded event carries exactly one Kind.
type Kind uint8

const (
	// KindArrive: a request entered an engine's admission queue.
	// Tokens = prompt length, KVLen = full KV reservation.
	KindArrive Kind = iota
	// KindRoute: the cluster router picked a target node for a
	// request. Target = chosen node, Load/Backlog = the per-node
	// outstanding-token and prefill-backlog snapshots the decision
	// saw. Node is -1 (router events are fleet-level).
	KindRoute
	// KindForward: overload control re-targeted a request from a
	// saturated pick to the least-loaded node. Target = new node.
	KindForward
	// KindRetry: overload control re-enqueued a request with
	// exponential backoff. Dur = backoff delay in cycles, Tokens =
	// attempt number.
	KindRetry
	// KindShed: the router found the fleet saturated for a request
	// (each shed attempt is one event). Tokens = attempt number.
	KindShed
	// KindDrop: a request exhausted its retry budget and left the
	// system unserved.
	KindDrop
	// KindAdmit: the engine bound a request to a batch slot. Slot =
	// slot index, KVLen = KV tokens reserved against the cap,
	// Tokens = decode tokens already generated (non-zero only when
	// resuming a preempted request).
	KindAdmit
	// KindPrefixHit: the session prefix cache covered a prefix of
	// the prompt. Tokens = prefill tokens skipped.
	KindPrefixHit
	// KindPrefixMiss: the prompt had no reusable cached prefix.
	KindPrefixMiss
	// KindPrefill: one prefill chunk was processed for a stream.
	// Tokens = chunk length, Dur = the step's cycle cost, MemoHit =
	// step replayed from the step memo.
	KindPrefill
	// KindDecode: one decode token was produced for a stream.
	// Tokens = tokens generated so far for the request, Dur = the
	// step's cycle cost, MemoHit = step replayed from the step memo.
	KindDecode
	// KindPreempt: a running stream was evicted back to the queue.
	// Tokens = decode tokens preserved for resume, KVLen = KV
	// reservation released.
	KindPreempt
	// KindRetire: a request completed and released its slot.
	// Tokens = total decode tokens, Dur = cycles since arrival.
	KindRetire
	// KindSample: a periodic gauge sample (see Gauges). Req,
	// Session and Slot are -1.
	KindSample
	// KindNodeDown: a node crashed, losing its KV, prefix cache and
	// in-flight streams. Target = crashed node, Tokens = in-flight and
	// queued requests taken down with it, KVLen = decode tokens whose
	// KV was lost (recomputed as prefill on redispatch), Dur = the
	// failure detector's blind window in cycles. Node is -1 (fault
	// events are fleet-level).
	KindNodeDown
	// KindNodeUp: a crashed node rejoined the fleet cold (empty KV and
	// prefix cache). Target = rejoined node, Dur = downtime in cycles.
	KindNodeUp
	// KindRedispatch: a request lost to a node crash re-entered the
	// router. Tokens = decode tokens already generated (re-prefilled,
	// never re-generated, on the new node). The request's next
	// KindRoute event names the node it lands on.
	KindRedispatch
	// KindHWSample: one hardware-profile bucket (see HWGauges),
	// emitted post-drain by engines running with -hwprof, stamped at
	// the bucket's end boundary on the shared sampling grid. Req,
	// Session and Slot are -1.
	KindHWSample
)

var kindNames = [...]string{
	"arrive", "route", "forward", "retry", "shed", "drop",
	"admit", "prefix-hit", "prefix-miss", "prefill", "decode",
	"preempt", "retire", "sample",
	"node-down", "node-up", "redispatch", "hw-sample",
}

// String returns the stable wire name of the kind, used by every
// exporter ("arrive", "route", ..., "sample").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Gauges is one node's load snapshot taken by the K-cycle sampler.
type Gauges struct {
	// Outstanding is the engine's outstanding-token total (queued +
	// running prompt and decode work), the router's primary load
	// signal.
	Outstanding int64
	// Backlog is the prefill backlog: prompt tokens not yet
	// prefilled across queue and running streams.
	Backlog int64
	// KVUsed is the KV reservation level against KVCapTokens (0
	// when admission control is off).
	KVUsed int64
	// Running is the number of occupied batch slots.
	Running int
	// PrefixFill is the session prefix cache's resident token count
	// (0 when the cache is disabled).
	PrefixFill int64
}

// HWGauges is one hardware-profile bucket attached to a KindHWSample
// event: the raw counter sums of the engine steps that completed in
// the bucket, plus the bottleneck class the hwprof classifier
// assigned. All numeric fields are summable — the CSV exporter's
// fleet rollup adds them across nodes and re-derives rates from the
// sums, so the rollup is exact rather than an average of averages.
type HWGauges struct {
	// Steps completed in the bucket and their wall-clock cost
	// (straggler-scaled engine cycles).
	Steps      int64
	BusyCycles int64
	// Cycles is the raw (unscaled) core-cycle counter sum.
	Cycles int64
	// DRAMBytes is line-sized DRAM traffic (reads + writes).
	DRAMBytes int64
	// L2 and stall counter sums, denominators included so rates can
	// be re-derived after any rollup.
	L2Hits        int64
	L2Accesses    int64
	CoreMemStall  int64
	CacheStall    int64
	SliceCycles   int64
	DRAMBusCycles int64
	// Cores and Channels are the node's hardware shape (per-node
	// fraction denominators). The fleet is homogeneous, so rollups
	// take them from any node.
	Cores    int
	Channels int
	// Class is the bucket's bottleneck class wire name
	// ("idle", "compute-bound", "memory-bound", "stalled").
	Class string
}

// Event is one recorded lifecycle event. Integer ID fields use -1 for
// "not applicable" (e.g. Slot before admission, Req on samples);
// request IDs start at 0, so zero values are meaningful and never
// stand in for absence.
type Event struct {
	Kind    Kind
	Cycle   int64 // global cycle at which the event completed
	Dur     int64 // span length in cycles; 0 for instants
	Node    int   // stamped by the Collector; -1 = router
	Req     int   // request ID, -1 if n/a
	Session int   // session ID, -1 if none
	Slot    int   // batch slot, -1 if n/a
	Tokens  int   // kind-specific token count (see Kind docs)
	KVLen   int   // kind-specific KV token count (see Kind docs)
	MemoHit bool  // step replayed from the step memo
	Target  int   // route/forward destination node, -1 if n/a
	// Load and Backlog are per-node snapshots attached to KindRoute
	// events; nil otherwise. They alias router-owned scratch only
	// until the recorder copies them (Buffer.Record copies).
	Load    []int64
	Backlog []int64
	Gauges  Gauges // KindSample only
	// HW is the hardware-profile bucket attached to KindHWSample
	// events; nil otherwise.
	HW *HWGauges
}

// Recorder receives lifecycle events. Implementations are not required
// to be safe for concurrent use: the engine contract is that a given
// Recorder is only ever called from the goroutine advancing the engine
// it is attached to.
type Recorder interface {
	Record(ev Event)
}

// Buffer is the append-only Recorder used per node (and for the
// router). It copies the Load/Backlog snapshot slices so callers may
// reuse their scratch buffers across events.
type Buffer struct {
	events []Event
}

// Record appends ev to the buffer.
func (b *Buffer) Record(ev Event) {
	if ev.Load != nil {
		ev.Load = append([]int64(nil), ev.Load...)
	}
	if ev.Backlog != nil {
		ev.Backlog = append([]int64(nil), ev.Backlog...)
	}
	b.events = append(b.events, ev)
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the recorded events in append order. The slice is
// owned by the buffer; callers must not mutate it.
func (b *Buffer) Events() []Event { return b.events }

// Collector owns one Buffer per node plus a router buffer and merges
// them into a single deterministic event stream. Node recorders must
// be created (Node calls) before engines advance concurrently; after
// that, each node's buffer is only appended to by the goroutine
// driving that node, so no locking is needed and the merge order is
// independent of scheduling.
type Collector struct {
	sampleEvery int64
	router      Buffer
	nodes       []*Buffer
}

// NewCollector returns a collector whose engines sample gauges every
// sampleEvery cycles (0 disables sampling).
func NewCollector(sampleEvery int64) *Collector {
	return &Collector{sampleEvery: sampleEvery}
}

// SampleEvery returns the gauge sampling period in cycles (0 = off).
func (c *Collector) SampleEvery() int64 { return c.sampleEvery }

// stamped wraps a buffer and stamps every event with a fixed node
// index, so emission sites need no knowledge of fleet topology.
type stamped struct {
	buf  *Buffer
	node int
}

func (s stamped) Record(ev Event) {
	ev.Node = s.node
	s.buf.Record(ev)
}

// Router returns the recorder for fleet-level router events, stamped
// Node = -1.
func (c *Collector) Router() Recorder { return stamped{buf: &c.router, node: -1} }

// Node returns the recorder for node i, stamped Node = i, creating
// buffers as needed. Not safe for concurrent use — call for every
// node before the fan-out starts.
func (c *Collector) Node(i int) Recorder {
	for len(c.nodes) <= i {
		c.nodes = append(c.nodes, &Buffer{})
	}
	return stamped{buf: c.nodes[i], node: i}
}

// Nodes returns the number of node buffers created so far.
func (c *Collector) Nodes() int { return len(c.nodes) }

// StripMemoHits clears the MemoHit annotation on every event, in
// place — the trace-level analogue of Metrics.StripStepCache. The
// flag records which steps replayed from the shared step memo, the
// one signal that depends on fan-out timing; a stripped stream is
// byte-identical at any parallelism.
func StripMemoHits(events []Event) {
	for i := range events {
		events[i].MemoHit = false
	}
}

// Events merges all buffers into one stream ordered by Cycle, then
// buffer (the router before node 0, nodes by index), then append
// sequence within a buffer. A buffer is not necessarily cycle-monotonic
// (an engine stamps gauge samples on grid boundaries behind its clock),
// so the merge sorts small (cycle, buffer, index) keys rather than the
// events themselves and then gathers once. The order is total and
// deterministic: it does not depend on goroutine scheduling.
func (c *Collector) Events() []Event {
	bufs := append([]*Buffer{&c.router}, c.nodes...)
	total := 0
	for _, b := range bufs {
		total += b.Len()
	}
	type key struct {
		cycle    int64
		buf, idx int32
	}
	keys := make([]key, 0, total)
	for bi, b := range bufs {
		for i := range b.events {
			keys = append(keys, key{b.events[i].Cycle, int32(bi), int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.cycle, b.cycle), cmp.Compare(a.buf, b.buf), cmp.Compare(a.idx, b.idx))
	})
	out := make([]Event, len(keys))
	for i, k := range keys {
		out[i] = bufs[k.buf].events[k.idx]
	}
	return out
}
