package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Ledger verdict classes. Every candidate account ends in exactly one
// verdict; VerdictWinner marks the account whose work was *useful* (it
// became the adapter), everything else is *speculative* — effort the
// deterministic search result discards. Oracle hits are *shared* work:
// lookups answered from the memo table instead of re-interpreting the
// user program.
const (
	VerdictWinner = "winner"
)

// ledgerKey identifies one candidate account: the (trace, function,
// target, candidate) tuple the issue asks every interpreter test, step,
// and oracle lookup to be charged to.
type ledgerKey struct {
	trace     string
	function  string
	target    string
	candidate string
}

// LedgerEntry is one candidate's account: what it cost and how it ended.
type LedgerEntry struct {
	Trace     string `json:"trace,omitempty"`
	Function  string `json:"function"`
	Target    string `json:"target"`
	Candidate string `json:"candidate"`
	// Verdict is the candidate's final fuzz outcome ("winner",
	// "survived", "behavior-mismatch", ...). Last write
	// wins: the synthesis engine overrides the winning candidate's
	// "survived" with "winner" once the deterministic search resolves.
	Verdict string `json:"verdict"`
	// Tests counts IO examples executed against the candidate.
	Tests int64 `json:"tests"`
	// Steps and Ops are interpreter work performed on this candidate's
	// behalf (reference-oracle misses it paid for).
	Steps int64 `json:"steps"`
	Ops   int64 `json:"ops"`
	// OracleHits/OracleMisses count memoized reference lookups: hits are
	// shared work (paid for once by some candidate, reused here).
	OracleHits   int64 `json:"oracle_hits"`
	OracleMisses int64 `json:"oracle_misses"`
}

// Ledger charges synthesis work to (function, candidate, target, verdict)
// accounts. Like Journal it is a nil-safe view onto shared state: Scoped
// returns a view that books all charges under a request trace ID, so one
// process-wide ledger serves concurrent faccd requests.
//
// Hot-path discipline: every method is a no-op on a nil receiver, but
// call sites must still guard with a nil check *before* building the key
// strings (candidate keys allocate), so a disabled ledger costs nothing.
type Ledger struct {
	trace string
	s     *ledgerState
}

type ledgerState struct {
	mu      sync.Mutex
	entries map[ledgerKey]*LedgerEntry
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{s: &ledgerState{entries: map[ledgerKey]*LedgerEntry{}}}
}

// Scoped returns a view of the same ledger that books charges under the
// given trace ID. Nil-safe; an empty trace returns the receiver.
func (l *Ledger) Scoped(trace string) *Ledger {
	if l == nil || trace == "" {
		return l
	}
	return &Ledger{trace: trace, s: l.s}
}

// Trace returns the view's trace scope ("" for the root view).
func (l *Ledger) Trace() string {
	if l == nil {
		return ""
	}
	return l.trace
}

// account returns (creating if needed) the entry for the candidate.
// Caller holds s.mu.
func (l *Ledger) account(function, target, candidate string) *LedgerEntry {
	k := ledgerKey{trace: l.trace, function: function, target: target, candidate: candidate}
	e := l.s.entries[k]
	if e == nil {
		e = &LedgerEntry{Trace: l.trace, Function: function, Target: target,
			Candidate: candidate}
		l.s.entries[k] = e
	}
	return e
}

// ChargeTests books IO examples executed against the candidate.
func (l *Ledger) ChargeTests(function, target, candidate string, tests int64) {
	if l == nil || tests == 0 {
		return
	}
	l.s.mu.Lock()
	l.account(function, target, candidate).Tests += tests
	l.s.mu.Unlock()
}

// ChargeInterp books interpreter steps/ops the candidate paid for
// (reference-oracle misses it triggered).
func (l *Ledger) ChargeInterp(function, target, candidate string, steps, ops int64) {
	if l == nil {
		return
	}
	l.s.mu.Lock()
	e := l.account(function, target, candidate)
	e.Steps += steps
	e.Ops += ops
	l.s.mu.Unlock()
}

// ChargeOracle books memoized reference lookups: hit=true means the
// candidate reused a previously computed run (shared work).
func (l *Ledger) ChargeOracle(function, target, candidate string, hit bool) {
	if l == nil {
		return
	}
	l.s.mu.Lock()
	e := l.account(function, target, candidate)
	if hit {
		e.OracleHits++
	} else {
		e.OracleMisses++
	}
	l.s.mu.Unlock()
}

// SetVerdict records the candidate's final outcome. Last write wins.
func (l *Ledger) SetVerdict(function, target, candidate, verdict string) {
	if l == nil {
		return
	}
	l.s.mu.Lock()
	l.account(function, target, candidate).Verdict = verdict
	l.s.mu.Unlock()
}

// Entries returns all accounts sorted by (trace, function, target,
// candidate) — a deterministic snapshot.
func (l *Ledger) Entries() []LedgerEntry {
	if l == nil {
		return nil
	}
	l.s.mu.Lock()
	out := make([]LedgerEntry, 0, len(l.s.entries))
	for _, e := range l.s.entries {
		out = append(out, *e)
	}
	l.s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Candidate < b.Candidate
	})
	return out
}

// TraceEntries returns the accounts booked under one trace ID, sorted —
// a request's cost ledger, for flight records.
func (l *Ledger) TraceEntries(trace string) []LedgerEntry {
	if l == nil || trace == "" {
		return nil
	}
	var out []LedgerEntry
	for _, e := range l.Entries() {
		if e.Trace == trace {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of candidate accounts.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	return len(l.s.entries)
}

// TargetCost aggregates one target's accounts into the useful /
// speculative / shared decomposition.
type TargetCost struct {
	Target string `json:"target"`

	// Useful work: charged to candidates that became adapters.
	UsefulTests int64 `json:"useful_tests"`
	UsefulSteps int64 `json:"useful_steps"`

	// Speculative work: charged to killed/failed candidates, including
	// cases that ran above a kill before they were cancelled.
	SpeculativeTests int64 `json:"speculative_tests"`
	SpeculativeSteps int64 `json:"speculative_steps"`

	// Shared work: oracle lookups answered from the memo table. The hit
	// split shows *who* benefited — winners or losers.
	OracleHits       int64 `json:"oracle_hits"`
	OracleMisses     int64 `json:"oracle_misses"`
	UsefulOracleHits int64 `json:"useful_oracle_hits"`

	// WasteRatio = speculative tests / all tests (0 when nothing ran).
	WasteRatio float64 `json:"waste_ratio"`
	// OracleHitRate = hits / (hits + misses) (0 when nothing looked up).
	OracleHitRate float64 `json:"oracle_hit_rate"`

	// Verdicts counts candidate accounts by final verdict.
	Verdicts map[string]int `json:"verdicts"`
}

// CostSummary is the ledger rolled up per target plus a grand total.
type CostSummary struct {
	Targets []TargetCost `json:"targets"` // sorted by target name
	Total   TargetCost   `json:"total"`   // Target == "all"
}

// finish derives the ratios after accumulation.
func (tc *TargetCost) finish() {
	if total := tc.UsefulTests + tc.SpeculativeTests; total > 0 {
		tc.WasteRatio = float64(tc.SpeculativeTests) / float64(total)
	}
	if lookups := tc.OracleHits + tc.OracleMisses; lookups > 0 {
		tc.OracleHitRate = float64(tc.OracleHits) / float64(lookups)
	}
}

// add books one entry into the aggregate.
func (tc *TargetCost) add(e *LedgerEntry) {
	useful := e.Verdict == VerdictWinner
	if useful {
		tc.UsefulTests += e.Tests
		tc.UsefulSteps += e.Steps
		tc.UsefulOracleHits += e.OracleHits
	} else {
		tc.SpeculativeTests += e.Tests
		tc.SpeculativeSteps += e.Steps
	}
	tc.OracleHits += e.OracleHits
	tc.OracleMisses += e.OracleMisses
	if tc.Verdicts == nil {
		tc.Verdicts = map[string]int{}
	}
	v := e.Verdict
	if v == "" {
		v = "undecided"
	}
	tc.Verdicts[v]++
}

// Summary rolls the ledger up per target. Deterministic: targets sorted.
func (l *Ledger) Summary() CostSummary {
	entries := l.Entries()
	byTarget := map[string]*TargetCost{}
	total := TargetCost{Target: "all"}
	for i := range entries {
		e := &entries[i]
		tc := byTarget[e.Target]
		if tc == nil {
			tc = &TargetCost{Target: e.Target}
			byTarget[e.Target] = tc
		}
		tc.add(e)
		total.add(e)
	}
	names := make([]string, 0, len(byTarget))
	for name := range byTarget {
		names = append(names, name)
	}
	sort.Strings(names)
	out := CostSummary{Total: total}
	for _, name := range names {
		tc := byTarget[name]
		tc.finish()
		out.Targets = append(out.Targets, *tc)
	}
	out.Total.finish()
	return out
}

// WriteCostReport renders the per-target waste breakdown as deterministic
// human-readable text — the body of `facc -explain -costs`.
func (l *Ledger) WriteCostReport(out io.Writer) error {
	w := &errWriter{w: out}
	sum := l.Summary()
	fmt.Fprintf(w, "synthesis cost ledger: %d candidate account(s)\n", l.Len())
	if len(sum.Targets) == 0 {
		fmt.Fprintf(w, "  (no work charged)\n")
		return w.err
	}
	writeOne := func(tc *TargetCost) {
		fmt.Fprintf(w, "\ntarget %s:\n", tc.Target)
		fmt.Fprintf(w, "  tests:  useful %d | speculative %d (waste %.1f%%)\n",
			tc.UsefulTests, tc.SpeculativeTests, 100*tc.WasteRatio)
		fmt.Fprintf(w, "  steps:  useful %d | speculative %d\n",
			tc.UsefulSteps, tc.SpeculativeSteps)
		fmt.Fprintf(w, "  oracle: %d hit(s) (shared) / %d miss(es), hit rate %.1f%%"+
			" — %d hit(s) on the winner\n",
			tc.OracleHits, tc.OracleMisses, 100*tc.OracleHitRate, tc.UsefulOracleHits)
		verdicts := make([]string, 0, len(tc.Verdicts))
		for v := range tc.Verdicts {
			verdicts = append(verdicts, v)
		}
		sort.Strings(verdicts)
		fmt.Fprintf(w, "  verdicts:")
		for _, v := range verdicts {
			fmt.Fprintf(w, " %s ×%d", v, tc.Verdicts[v])
		}
		fmt.Fprintf(w, "\n")
	}
	for i := range sum.Targets {
		writeOne(&sum.Targets[i])
	}
	if len(sum.Targets) > 1 {
		writeOne(&sum.Total)
	}
	return w.err
}

// WritePrometheus appends the ledger's per-target aggregates to a
// Prometheus text-format exposition, using labels for target and work
// class. Deterministic: targets sorted, classes in fixed order.
func (l *Ledger) WritePrometheus(w io.Writer) error {
	if l == nil {
		return nil
	}
	ew := &errWriter{w: w}
	sum := l.Summary()
	if len(sum.Targets) == 0 {
		return nil
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_tests_total counter\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_tests_total{target=%q,class=\"useful\"} %d\n",
			tc.Target, tc.UsefulTests)
		fmt.Fprintf(ew, "facc_ledger_tests_total{target=%q,class=\"speculative\"} %d\n",
			tc.Target, tc.SpeculativeTests)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_interp_steps_total counter\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_interp_steps_total{target=%q,class=\"useful\"} %d\n",
			tc.Target, tc.UsefulSteps)
		fmt.Fprintf(ew, "facc_ledger_interp_steps_total{target=%q,class=\"speculative\"} %d\n",
			tc.Target, tc.SpeculativeSteps)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_oracle_lookups_total counter\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_oracle_lookups_total{target=%q,result=\"hit\"} %d\n",
			tc.Target, tc.OracleHits)
		fmt.Fprintf(ew, "facc_ledger_oracle_lookups_total{target=%q,result=\"miss\"} %d\n",
			tc.Target, tc.OracleMisses)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_waste_ratio gauge\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_waste_ratio{target=%q} %g\n", tc.Target, tc.WasteRatio)
	}
	fmt.Fprintf(ew, "# TYPE facc_ledger_oracle_hit_rate gauge\n")
	for i := range sum.Targets {
		tc := &sum.Targets[i]
		fmt.Fprintf(ew, "facc_ledger_oracle_hit_rate{target=%q} %g\n", tc.Target, tc.OracleHitRate)
	}
	return ew.err
}
