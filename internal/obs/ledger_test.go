package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	l.ChargeTests("fft", "ffta", "b0", 4)
	l.ChargeTests("fft", "ffta", "b0", 6)
	l.ChargeInterp("fft", "ffta", "b0", 100, 250)
	l.ChargeOracle("fft", "ffta", "b0", false)
	l.ChargeOracle("fft", "ffta", "b0", true)
	l.SetVerdict("fft", "ffta", "b0", "survived")
	l.SetVerdict("fft", "ffta", "b0", VerdictWinner) // last write wins

	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	e := l.Entries()[0]
	if e.Tests != 10 || e.Steps != 100 || e.Ops != 250 {
		t.Errorf("charges not accumulated: %+v", e)
	}
	if e.OracleHits != 1 || e.OracleMisses != 1 {
		t.Errorf("oracle lookups = %d/%d, want 1/1", e.OracleHits, e.OracleMisses)
	}
	if e.Verdict != VerdictWinner {
		t.Errorf("verdict = %q, want last-write %q", e.Verdict, VerdictWinner)
	}
	// ChargeTests with 0 must not create an account.
	l.ChargeTests("fft", "ffta", "b9", 0)
	if l.Len() != 1 {
		t.Errorf("zero-test charge created an account")
	}
}

func TestLedgerEntriesSorted(t *testing.T) {
	l := NewLedger()
	l.ChargeTests("g", "fftw", "b", 1)
	l.ChargeTests("f", "powerquad", "a", 1)
	l.ChargeTests("f", "ffta", "z", 1)
	l.ChargeTests("f", "ffta", "a", 1)
	got := l.Entries()
	order := make([]string, len(got))
	for i, e := range got {
		order[i] = e.Function + "/" + e.Target + "/" + e.Candidate
	}
	want := []string{"f/ffta/a", "f/ffta/z", "f/powerquad/a", "g/fftw/b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("Entries order = %v, want %v", order, want)
		}
	}
}

// TestLedgerScoped: the request-scoped view stamps every account with the
// trace ID while sharing state with the root view — the mechanism that
// lets one process-wide ledger serve concurrent faccd requests.
func TestLedgerScoped(t *testing.T) {
	root := NewLedger()
	a := root.Scoped("trace-a")
	b := root.Scoped("trace-b")
	a.ChargeTests("fft", "ffta", "cand", 3)
	b.ChargeTests("fft", "ffta", "cand", 5)
	root.ChargeTests("fft", "ffta", "cand", 7)

	if root.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (one account per trace scope)", root.Len())
	}
	ea := root.TraceEntries("trace-a")
	if len(ea) != 1 || ea[0].Tests != 3 || ea[0].Trace != "trace-a" {
		t.Errorf("TraceEntries(trace-a) = %+v", ea)
	}
	if got := root.TraceEntries("trace-c"); got != nil {
		t.Errorf("unknown trace returned entries: %+v", got)
	}
	if root.Scoped("") != root {
		t.Error("Scoped(\"\") should return the receiver")
	}
	if a.Trace() != "trace-a" || root.Trace() != "" {
		t.Errorf("Trace() = %q / %q", a.Trace(), root.Trace())
	}
}

func TestLedgerSummary(t *testing.T) {
	l := NewLedger()
	// Winner: 10 tests, 2 oracle hits.
	l.ChargeTests("fft", "ffta", "win", 10)
	l.ChargeInterp("fft", "ffta", "win", 50, 100)
	l.ChargeOracle("fft", "ffta", "win", true)
	l.ChargeOracle("fft", "ffta", "win", true)
	l.SetVerdict("fft", "ffta", "win", VerdictWinner)
	// Killed loser: 30 tests, 1 hit 1 miss.
	l.ChargeTests("fft", "ffta", "lose", 30)
	l.ChargeInterp("fft", "ffta", "lose", 150, 300)
	l.ChargeOracle("fft", "ffta", "lose", true)
	l.ChargeOracle("fft", "ffta", "lose", false)
	l.SetVerdict("fft", "ffta", "lose", "behavior-mismatch")
	// A second target with only an undecided account.
	l.ChargeTests("fft", "fftw", "x", 5)

	sum := l.Summary()
	if len(sum.Targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(sum.Targets))
	}
	ffta := sum.Targets[0]
	if ffta.Target != "ffta" {
		t.Fatalf("targets not sorted: %v", sum.Targets)
	}
	if ffta.UsefulTests != 10 || ffta.SpeculativeTests != 30 {
		t.Errorf("useful/speculative = %d/%d, want 10/30",
			ffta.UsefulTests, ffta.SpeculativeTests)
	}
	if ffta.WasteRatio != 0.75 {
		t.Errorf("waste ratio = %g, want 0.75", ffta.WasteRatio)
	}
	if ffta.OracleHits != 3 || ffta.OracleMisses != 1 || ffta.UsefulOracleHits != 2 {
		t.Errorf("oracle hits/misses/useful = %d/%d/%d, want 3/1/2",
			ffta.OracleHits, ffta.OracleMisses, ffta.UsefulOracleHits)
	}
	if ffta.OracleHitRate != 0.75 {
		t.Errorf("oracle hit rate = %g, want 0.75", ffta.OracleHitRate)
	}
	if ffta.Verdicts["winner"] != 1 || ffta.Verdicts["behavior-mismatch"] != 1 {
		t.Errorf("verdicts = %v", ffta.Verdicts)
	}
	if sum.Targets[1].Verdicts["undecided"] != 1 {
		t.Errorf("empty verdict should count as undecided: %v", sum.Targets[1].Verdicts)
	}
	if sum.Total.Target != "all" || sum.Total.UsefulTests != 10 ||
		sum.Total.SpeculativeTests != 35 {
		t.Errorf("total = %+v", sum.Total)
	}
}

func TestLedgerCostReport(t *testing.T) {
	l := NewLedger()
	l.ChargeTests("fft", "ffta", "win", 10)
	l.SetVerdict("fft", "ffta", "win", VerdictWinner)
	l.ChargeTests("fft", "ffta", "lose", 30)
	l.SetVerdict("fft", "ffta", "lose", "behavior-mismatch")

	var sb strings.Builder
	if err := l.WriteCostReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"synthesis cost ledger: 2 candidate account(s)",
		"target ffta:",
		"useful 10 | speculative 30 (waste 75.0%)",
		"winner ×1",
		"behavior-mismatch ×1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cost report missing %q:\n%s", want, out)
		}
	}

	// Empty ledger: header plus the no-work line, no error.
	var empty strings.Builder
	if err := NewLedger().WriteCostReport(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "(no work charged)") {
		t.Errorf("empty report: %q", empty.String())
	}
}

func TestLedgerPrometheus(t *testing.T) {
	l := NewLedger()
	l.ChargeTests("fft", "ffta", "win", 10)
	l.ChargeInterp("fft", "ffta", "win", 50, 100)
	l.ChargeOracle("fft", "ffta", "win", true)
	l.SetVerdict("fft", "ffta", "win", VerdictWinner)
	l.ChargeTests("fft", "ffta", "lose", 30)
	l.SetVerdict("fft", "ffta", "lose", "behavior-mismatch")

	var sb strings.Builder
	if err := l.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`facc_ledger_tests_total{target="ffta",class="useful"} 10`,
		`facc_ledger_tests_total{target="ffta",class="speculative"} 30`,
		`facc_ledger_interp_steps_total{target="ffta",class="useful"} 50`,
		`facc_ledger_oracle_lookups_total{target="ffta",result="hit"} 1`,
		`facc_ledger_waste_ratio{target="ffta"} 0.75`,
		`facc_ledger_oracle_hit_rate{target="ffta"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Nil and empty ledgers contribute nothing (the /metrics append path).
	var nb strings.Builder
	var nl *Ledger
	if err := nl.WritePrometheus(&nb); err != nil || nb.Len() != 0 {
		t.Errorf("nil ledger exposition: err=%v out=%q", err, nb.String())
	}
}

// TestLedgerConcurrent hammers one ledger from many goroutines across
// scoped views — run under -race this is the data-race proof for the
// faccd path (concurrent compiles charging while /status snapshots).
func TestLedgerConcurrent(t *testing.T) {
	root := NewLedger()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := root
			if w%2 == 0 {
				l = root.Scoped("trace-a")
			}
			for i := 0; i < iters; i++ {
				l.ChargeTests("fft", "ffta", "cand", 1)
				l.ChargeInterp("fft", "ffta", "cand", 2, 3)
				l.ChargeOracle("fft", "ffta", "cand", i%2 == 0)
				l.SetVerdict("fft", "ffta", "cand", "survived")
				// Concurrent readers: snapshots must be consistent.
				_ = root.Entries()
				_ = root.Summary()
				_ = root.TraceEntries("trace-a")
			}
		}(w)
	}
	wg.Wait()
	var tests int64
	for _, e := range root.Entries() {
		tests += e.Tests
	}
	if want := int64(workers * iters); tests != want {
		t.Errorf("total tests = %d, want %d (lost updates)", tests, want)
	}
}

// TestNilLedgerSafe: every method is a free no-op on a nil receiver.
func TestNilLedgerSafe(t *testing.T) {
	var l *Ledger
	l.ChargeTests("f", "t", "c", 1)
	l.ChargeInterp("f", "t", "c", 1, 1)
	l.ChargeOracle("f", "t", "c", true)
	l.SetVerdict("f", "t", "c", "x")
	if l.Scoped("id") != nil {
		t.Error("nil.Scoped should stay nil")
	}
	if l.Entries() != nil || l.TraceEntries("id") != nil || l.Len() != 0 || l.Trace() != "" {
		t.Error("nil ledger leaked state")
	}
	allocs := testing.AllocsPerRun(500, func() {
		l.ChargeTests("f", "t", "c", 1)
		l.ChargeOracle("f", "t", "c", true)
		l.SetVerdict("f", "t", "c", "x")
	})
	if allocs != 0 {
		t.Errorf("nil ledger allocates %.0f per call cycle, want 0", allocs)
	}
}
