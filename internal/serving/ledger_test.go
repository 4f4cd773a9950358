package serving

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// rescanOutstanding is the reference definition of OutstandingTokens
// that the owedDecode ledger replaces: remaining budgets of running
// streams plus the full budgets of queued and pending requests.
func rescanOutstanding(e *Engine) int64 {
	var n int64
	for _, s := range e.slots {
		if s != nil {
			n += int64(s.left)
		}
	}
	for _, r := range e.queue {
		n += int64(r.DecodeTokens)
	}
	for _, r := range e.pending {
		n += int64(r.DecodeTokens)
	}
	return n
}

// rescanBacklog is the reference definition of PrefillBacklog that the
// owedPrefill ledger replaces.
func rescanBacklog(e *Engine) int64 {
	if e.sched.Policy == SchedDecodeOnly {
		return 0
	}
	var n int64
	for _, s := range e.slots {
		if s != nil {
			n += int64(s.prefillLeft)
		}
	}
	for _, r := range e.queue {
		n += int64(r.PromptLen)
	}
	for _, r := range e.pending {
		n += int64(r.PromptLen)
	}
	return n
}

// ledgerRequests draws a small request population: a burst at cycle 0
// followed by spaced arrivals, a few sessions whose later turns carry a
// prompt prefix, and decode budgets long enough to be caught mid-stream.
func ledgerRequests(rng *rand.Rand, n int) []Request {
	prompts := []int{16, 24, 32, 48}
	reqs := make([]Request, n)
	var at int64
	for i := range reqs {
		if i >= n/3 {
			at += rng.Int63n(40000)
		}
		r := Request{
			ID: i, Model: workload.Llama3_70B,
			PromptLen:    prompts[rng.Intn(len(prompts))],
			DecodeTokens: 1 + rng.Intn(6),
			ArrivalCycle: at,
			Session:      rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			r.PrefixLen = minKVLen + rng.Intn(r.PromptLen-minKVLen+1)
		}
		reqs[i] = r
	}
	return reqs
}

// TestLoadLedgersMatchRescan drives engines through every scheduler
// policy × preemption on/off × prefix cache on/off, with a crash and a
// SubmitResume redispatch of its victims mid-run, and asserts after
// every Submit, AdvanceTo, Drain and Crash that both O(1) load signals
// equal the full rescan they replace.
func TestLoadLedgersMatchRescan(t *testing.T) {
	memo := NewStepMemo()
	// The branches the ledgers must track have to be reached somewhere.
	var seen ledgerCoverage
	policies := []SchedulerConfig{
		{Policy: SchedChunked, ChunkTokens: 16},
		{Policy: SchedPrefillFirst},
		{Policy: SchedDecodeOnly},
	}
	for _, base := range policies {
		for _, preempt := range []PreemptPolicy{PreemptOff, PreemptNewest} {
			for _, pfx := range []int64{0, 256} {
				sched := base
				sched.KVCapTokens = 80
				sched.Preempt = preempt
				sched.PrefixCacheTokens = pfx
				if sched.Validate() != nil {
					continue
				}
				name := fmt.Sprintf("%v/preempt=%v/prefix=%d", sched.Policy, preempt, pfx)
				t.Run(name, func(t *testing.T) {
					runLedgerScenario(t, sched, memo, &seen)
				})
			}
		}
	}
	if seen.preemptions == 0 || seen.prefixHits == 0 || seen.resumed == 0 {
		t.Errorf("scenarios missed a ledger transition: %+v", seen)
	}
}

// ledgerCoverage counts the ledger-relevant events the scenarios reached.
type ledgerCoverage struct {
	preemptions, prefixHits, resumed int64
}

func runLedgerScenario(t *testing.T, sched SchedulerConfig, memo *StepMemo, cov *ledgerCoverage) {
	reqs := ledgerRequests(rand.New(rand.NewSource(1)), 14)
	const maxBatch = 3
	cfg := sim.DefaultConfig()
	cfg.L2SizeBytes /= 32
	stride, err := StreamStride(Scenario{Name: "ledger", Requests: reqs, MaxBatch: maxBatch, Sched: sched})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineWith(cfg, maxBatch, false, stride, RunOptions{Sched: sched, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	check := func(where string) {
		t.Helper()
		if got, want := e.OutstandingTokens(), rescanOutstanding(e); got != want {
			t.Fatalf("%s: OutstandingTokens %d, rescan %d", where, got, want)
		}
		if got, want := e.PrefillBacklog(), rescanBacklog(e); got != want {
			t.Fatalf("%s: PrefillBacklog %d, rescan %d", where, got, want)
		}
	}
	// advance walks the clock to target one step at a time where it
	// can, so the ledgers are compared at every step boundary.
	advance := func(target int64) {
		t.Helper()
		for e.Now() < target {
			before := e.Now()
			if err := e.AdvanceTo(before + 1); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("AdvanceTo(%d)", before+1))
			if e.Now() == before {
				break // idle until an arrival past before+1
			}
		}
		if err := e.AdvanceTo(target); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("AdvanceTo(%d)", target))
	}
	submit := func(r Request, tokens int) {
		t.Helper()
		if err := e.SubmitResume(r, tokens); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Submit(%d)", r.ID))
	}

	crashAt := len(reqs) / 2
	for i, r := range reqs {
		advance(r.ArrivalCycle)
		if i == crashAt {
			victims, _ := e.Crash()
			check("Crash")
			// Redispatch the victims back onto the rejoined node in
			// arrival order, carrying their decode progress.
			sort.SliceStable(victims, func(a, b int) bool {
				return victims[a].Req.ArrivalCycle < victims[b].Req.ArrivalCycle
			})
			for _, v := range victims {
				if v.Tokens > 0 {
					cov.resumed++
				}
				submit(v.Req, v.Tokens)
			}
		}
		submit(r, 0)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	check("Drain")
	m := e.Metrics()
	cov.preemptions += m.Preemptions
	cov.prefixHits += m.PrefixHits
}
