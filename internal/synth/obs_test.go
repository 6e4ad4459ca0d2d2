package synth

import (
	"context"
	"fmt"
	"testing"

	"facc/internal/accel"
	"facc/internal/minic"
	"facc/internal/obs"
)

// TestNilObsInstrumentationZeroAllocs asserts the disabled-tracing property
// the fuzz loop relies on: every instrumentation call testCandidate makes —
// child-span creation, attribute chaining, metric lookups, observations,
// End — is a free no-op on a nil span. If any of these ever allocates, the
// hot path pays for observability even when it is switched off.
func TestNilObsInstrumentationZeroAllocs(t *testing.T) {
	var sp *obs.Span
	allocs := testing.AllocsPerRun(500, func() {
		fsp := sp.Child("fuzz").Str("binding", "key").Int("candidate", 1)
		fsp.Str("outcome", "fault").Str("fault", "out-of-bounds")
		m := fsp.Metrics()
		m.Counter("interp.ops").Add(1)
		m.Counter("synth.tests_run").Inc()
		m.Histogram("synth.tests_per_candidate", obs.CountBuckets).Observe(3)
		fsp.Int("tests", 3)
		fsp.End()
	})
	if allocs != 0 {
		t.Errorf("no-op tracer allocates %.0f per fuzz iteration, want 0", allocs)
	}
}

// TestNilJournalZeroAllocs: the provenance journal and cost ledger obey
// the same contract. With neither attached, the verdict helper (the only
// journal/ledger touchpoint on the fuzz hot path) must not allocate —
// counterexample and candidate-key rendering are gated behind the nil
// checks at every call site, and Record on a nil journal is free.
func TestNilJournalZeroAllocs(t *testing.T) {
	var j *obs.Journal
	allocs := testing.AllocsPerRun(500, func() {
		verdict(Options{}, "fft", nil, "survived", 10, "", "")
		j.Record(obs.JournalEvent{Kind: obs.KindFuzz})
	})
	if allocs != 0 {
		t.Errorf("nil journal allocates %.0f per fuzz iteration, want 0", allocs)
	}
}

// TestNilLedgerZeroAllocs: the satellite zero-overhead guarantee — a nil
// (disabled) ledger costs nothing on the hot path. Every ledger method is
// exercised the way the fuzz loop and oracle would call them, through the
// nil-guarded paths that skip key rendering entirely.
func TestNilLedgerZeroAllocs(t *testing.T) {
	var l *obs.Ledger
	allocs := testing.AllocsPerRun(500, func() {
		// The guards the hot path uses before touching the ledger.
		if l != nil {
			t.Fatal("unreachable")
		}
		// And the methods themselves are free even when called.
		l.ChargeTests("fft", "ffta", "key", 10)
		l.ChargeInterp("fft", "ffta", "key", 100, 200)
		l.ChargeOracle("fft", "ffta", "key", true)
		l.SetVerdict("fft", "ffta", "key", "survived")
		l.Scoped("")
	})
	if allocs != 0 {
		t.Errorf("nil ledger allocates %.0f per fuzz iteration, want 0", allocs)
	}
}

// TestSynthesizeWithObsSpan: an attached span yields per-candidate fuzz
// spans (with test counts and outcomes) and the search-space counters.
func TestSynthesizeWithObsSpan(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	root := tr.Span("synthesize")
	// Workers: 2 — candidates are tested in order at any worker count,
	// so the span-count assertion (one fuzz span per tested candidate)
	// holds with cases running in parallel too.
	res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(), pow2Profile("n"),
		Options{NumTests: 4, Obs: root, Workers: 2})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	fuzz := tr.Find("fuzz")
	if len(fuzz) != res.Tested {
		t.Fatalf("%d fuzz spans, want one per tested candidate (%d)",
			len(fuzz), res.Tested)
	}
	survived := 0
	for _, sp := range fuzz {
		if sp.Attr("tests") == nil || sp.Attr("outcome") == nil {
			t.Errorf("fuzz span missing attributes: %v", sp.Attrs)
		}
		if sp.Attr("outcome") == "survived" {
			survived++
		}
	}
	if survived != res.Survivors {
		t.Errorf("%d survived spans, want %d", survived, res.Survivors)
	}
	c := tr.Metrics().Counters()
	if c["synth.candidates_tested"] != int64(res.Tested) {
		t.Errorf("synth.candidates_tested = %d, want %d",
			c["synth.candidates_tested"], res.Tested)
	}
	if c["synth.winners"] != 1 {
		t.Errorf("synth.winners = %d, want 1", c["synth.winners"])
	}
	if c["interp.ops"] == 0 {
		t.Error("interpreter op counter not published")
	}
	if c["accel.runs.ffta"] != 0 {
		t.Error("spec not instrumented here; accel counter should be absent")
	}
}

// TestNilKillTableZeroAllocsOnVerdictPath: with no kill table attached,
// the kill-attribution touchpoints on the fuzz hot path must be free —
// recordKill returns before rendering any candidate key or case
// signature (it must not even dereference the candidate), and every
// KillTable method no-ops on nil.
func TestNilKillTableZeroAllocsOnVerdictPath(t *testing.T) {
	var k *obs.KillTable
	allocs := testing.AllocsPerRun(500, func() {
		recordKill(Options{}, "fft", nil, nil, -1, 0, "behavior-mismatch", "")
		k.AddDispatched("fft", "ffta", 1)
		k.AddSurvived("fft", "ffta", 1)
		k.AddWinner("fft", "ffta", 1)
	})
	if allocs != 0 {
		t.Errorf("nil kill table allocates %.0f per verdict, want 0", allocs)
	}
}

// TestSynthesizeKillAttribution: with a kill table attached, every
// non-survivor records a kill event consistent with the funnel, the
// journal's "killed by" line, and the case-signature convention.
func TestSynthesizeKillAttribution(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	kills := obs.NewKillTable()
	j := obs.NewJournal()
	res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(), pow2Profile("n"),
		Options{NumTests: 4, Workers: 1, ExhaustAll: true, Kills: kills, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	sum := kills.Summary()
	if sum == nil {
		t.Fatal("no search summary despite attached kill table")
	}
	if sum.Dispatched != int64(res.Tested) {
		t.Errorf("dispatched = %d, want res.Tested = %d", sum.Dispatched, res.Tested)
	}
	if sum.Survived != int64(res.Survivors) {
		t.Errorf("survived = %d, want res.Survivors = %d", sum.Survived, res.Survivors)
	}
	if sum.Winners != 1 {
		t.Errorf("winners = %d, want 1", sum.Winners)
	}
	if sum.Generated < sum.Dispatched {
		t.Errorf("generated (%d) < dispatched (%d): funnel head lost hypotheses",
			sum.Generated, sum.Dispatched)
	}
	// ExhaustAll: every dispatched candidate either survived or died
	// with a kill event.
	if got := sum.Killed + sum.Survived; got != sum.Dispatched {
		t.Errorf("killed (%d) + survived (%d) != dispatched (%d)",
			sum.Killed, sum.Survived, sum.Dispatched)
	}

	// Journal cross-check: each fuzz verdict with a mismatch must have a
	// kill event whose 0-based case index is tests-1.
	depthByCand := map[string]int{}
	for _, ev := range kills.Events() {
		if ev.Function != "fft" || ev.Target != "ffta" {
			t.Fatalf("kill event mis-attributed: %+v", ev)
		}
		if ev.Family == "" || ev.Candidate == "" {
			t.Fatalf("kill event missing family/candidate: %+v", ev)
		}
		if ev.CaseIndex >= 0 {
			want := fmt.Sprintf("seed=%d n=%d case=%d", ev.Seed, ev.Len, ev.CaseIndex)
			if ev.CaseSig != want {
				t.Errorf("case sig = %q, want %q", ev.CaseSig, want)
			}
			if ev.Steps <= 0 {
				t.Errorf("kill at case %d charged %d interp steps, want > 0",
					ev.CaseIndex, ev.Steps)
			}
		}
		depthByCand[ev.Candidate] = ev.CaseIndex
	}
	mismatches := 0
	for _, ev := range j.Events() {
		if ev.Kind != obs.KindFuzz || ev.Mismatch == "" {
			continue
		}
		mismatches++
		if got, ok := depthByCand[ev.Candidate]; !ok || got != ev.Tests-1 {
			t.Errorf("journal says %s died at case %d, kill table says %d",
				ev.Candidate, ev.Tests-1, got)
		}
	}
	if mismatches == 0 || int64(mismatches) != sum.Killed {
		t.Errorf("journal mismatch verdicts = %d, kill table killed = %d",
			mismatches, sum.Killed)
	}
}

// TestKillTableDoesNotPerturbSearch: attaching the observatory must not
// change what is synthesized — adapters are byte-identical with and
// without a kill table, at Workers=1 and Workers=8.
func TestKillTableDoesNotPerturbSearch(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	var baseline string
	for _, cfg := range []struct {
		workers int
		kills   *obs.KillTable
	}{
		{1, nil}, {1, obs.NewKillTable()}, {8, nil}, {8, obs.NewKillTable()},
	} {
		res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(),
			pow2Profile("n"), Options{NumTests: 4, Workers: cfg.workers, Kills: cfg.kills})
		if err != nil {
			t.Fatal(err)
		}
		if res.Adapter == nil {
			t.Fatalf("workers=%d kills=%v: no adapter", cfg.workers, cfg.kills != nil)
		}
		key := res.Adapter.Cand.Key()
		if baseline == "" {
			baseline = key
		} else if key != baseline {
			t.Errorf("workers=%d kills=%v: winner %q differs from baseline %q",
				cfg.workers, cfg.kills != nil, key, baseline)
		}
	}
}

// TestKillTableDeterministicSequential: at Workers=1 the kill stream is
// fully deterministic — two runs produce identical events.
func TestKillTableDeterministicSequential(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []obs.KillEvent {
		k := obs.NewKillTable()
		if _, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(),
			pow2Profile("n"), Options{NumTests: 4, Workers: 1, ExhaustAll: true, Kills: k}); err != nil {
			t.Fatal(err)
		}
		return k.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}
