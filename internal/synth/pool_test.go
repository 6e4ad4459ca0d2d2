package synth

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/binding"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
)

// eventSig renders the deterministic fields of a journal event — everything
// except Seq-adjacent timing. The parallel pool promises these match a
// sequential run byte for byte.
func eventSig(ev obs.JournalEvent) string {
	return fmt.Sprintf("%d|%s|%s|%s|%s|%s|%d|%s|%s", ev.Seq, ev.Kind,
		ev.Function, ev.Candidate, ev.Heuristic, ev.Outcome, ev.Tests,
		ev.Counterexample, ev.Detail)
}

// journalSigs drops the oracle-stats event (its hit/miss split legitimately
// varies with speculative work) and renders the rest.
func journalSigs(j *obs.Journal) []string {
	var out []string
	for _, ev := range j.Events() {
		if ev.Kind == obs.KindOracle {
			continue
		}
		out = append(out, eventSig(ev))
	}
	return out
}

func synthAtWorkers(t *testing.T, src, entry string, spec *accel.Spec,
	prof func() *analysis.Profile, workers int, exhaust bool) (*Result, *obs.Journal) {
	t.Helper()
	f, err := minic.ParseAndCheck("t.c", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	j := obs.NewJournal()
	res, err := Synthesize(context.Background(), f, f.Func(entry), spec, prof(),
		Options{NumTests: 4, Journal: j, Workers: workers, ExhaustAll: exhaust})
	if err != nil {
		t.Fatalf("synthesize (workers=%d): %v", workers, err)
	}
	return res, j
}

// TestPoolDeterministicAcrossWorkers is the core guarantee of the parallel
// engine: for every worker count, the Result counts, the winning binding,
// and the journaled verdict stream are identical to the sequential run.
func TestPoolDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		entry   string
		spec    func() *accel.Spec
		prof    func() *analysis.Profile
		exhaust bool
	}{
		{"ffta-first-winner", radix2Struct, "fft", accel.NewFFTA,
			func() *analysis.Profile { return pow2Profile("n") }, false},
		{"ffta-exhaust", radix2Struct, "fft", accel.NewFFTA,
			func() *analysis.Profile { return pow2Profile("n") }, true},
		{"fftw-direction-map", dirFlagSrc, "fft_dir", accel.NewFFTWLib,
			func() *analysis.Profile { return pow2Profile("n", 16, 32, 64) }, false},
		{"fftw-exhaust", dirFlagSrc, "fft_dir", accel.NewFFTWLib,
			func() *analysis.Profile { return pow2Profile("n", 16, 32, 64) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refJ := synthAtWorkers(t, tc.src, tc.entry, tc.spec(), tc.prof, 1, tc.exhaust)
			refSigs := journalSigs(refJ)
			for _, workers := range []int{2, 4, 8} {
				res, j := synthAtWorkers(t, tc.src, tc.entry, tc.spec(), tc.prof, workers, tc.exhaust)
				if res.Tested != ref.Tested || res.Survivors != ref.Survivors ||
					res.Candidates != ref.Candidates || res.FailReason != ref.FailReason {
					t.Errorf("workers=%d: result (%d tested, %d survivors, %q) != sequential (%d, %d, %q)",
						workers, res.Tested, res.Survivors, res.FailReason,
						ref.Tested, ref.Survivors, ref.FailReason)
				}
				switch {
				case (res.Adapter == nil) != (ref.Adapter == nil):
					t.Errorf("workers=%d: adapter presence differs", workers)
				case res.Adapter != nil:
					if res.Adapter.Cand.Key() != ref.Adapter.Cand.Key() {
						t.Errorf("workers=%d: winner %q != sequential %q",
							workers, res.Adapter.Cand.Key(), ref.Adapter.Cand.Key())
					}
					if res.Adapter.Post.String() != ref.Adapter.Post.String() {
						t.Errorf("workers=%d: post-op differs", workers)
					}
				}
				sigs := journalSigs(j)
				if len(sigs) != len(refSigs) {
					t.Fatalf("workers=%d: %d journal events, sequential has %d:\n%v\nvs\n%v",
						workers, len(sigs), len(refSigs), sigs, refSigs)
				}
				for i := range sigs {
					if sigs[i] != refSigs[i] {
						t.Errorf("workers=%d: journal event %d differs:\n%s\nvs\n%s",
							workers, i, sigs[i], refSigs[i])
					}
				}
			}
		})
	}
}

// guardedFFT prefixes radix2Struct's body with guard, so a fixture can
// make chosen case sizes (ffta tests n = 64, 128, 256 smallest-first
// under pow2Profile("n")) loop, fault or mismatch on purpose.
func guardedFFT(guard string) string {
	return strings.Replace(radix2Struct, "void fft(cpx* x, int n) {\n",
		"void fft(cpx* x, int n) {\n"+guard, 1)
}

// synthFixture compiles src's fft against ffta under pow2Profile("n")
// with the given options, tracing into a fresh tracer and journal.
func synthFixture(t *testing.T, src string, opts Options) (*Result, *obs.Tracer, *obs.Journal) {
	t.Helper()
	f, err := minic.ParseAndCheck("t.c", src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	tr := obs.New()
	sp := tr.Span("synthesize")
	j := obs.NewJournal()
	opts.Obs, opts.Journal = sp, j
	res, err := Synthesize(context.Background(), f, f.Func("fft"), accel.NewFFTA(),
		pow2Profile("n"), opts)
	sp.End()
	if err != nil {
		t.Fatalf("synthesize (workers=%d): %v", opts.Workers, err)
	}
	return res, tr, j
}

// fuzzVerdicts renders every fuzz verdict as outcome/tests/mismatch.
func fuzzVerdicts(j *obs.Journal) []string {
	var out []string
	for _, ev := range j.Events() {
		if ev.Kind == obs.KindFuzz {
			out = append(out, fmt.Sprintf("%s|%s|tests=%d|%s",
				ev.Candidate, ev.Outcome, ev.Tests, ev.Mismatch))
		}
	}
	return out
}

// TestCancelLaterCaseFailingFirst: the verdict comes from the lowest
// failing replay position, not the first case to finish. The smallest
// case loops for a while and then mismatches, while the next case
// faults at once; at Workers=2 the fault finishes first, yet every
// candidate must die of a behavior mismatch at case 0, as at Workers=1.
func TestCancelLaterCaseFailingFirst(t *testing.T) {
	src := guardedFFT(`    if (n == 64) {
        double acc = 0.0;
        for (int i = 0; i < 100000; i++) { acc = acc + 1.0; }
        x[0].re = acc;
        return;
    }
    if (n == 128) { x[n * 64].re = 1.0; }
`)
	_, _, j1 := synthFixture(t, src, Options{NumTests: 3, Workers: 1})
	_, _, j2 := synthFixture(t, src, Options{NumTests: 3, Workers: 2})
	seq, par := fuzzVerdicts(j1), fuzzVerdicts(j2)
	if len(seq) == 0 {
		t.Fatal("fixture drifted: no candidate was fuzzed")
	}
	for _, v := range seq {
		if !strings.HasSuffix(v, "|behavior-mismatch|tests=1|behavior-mismatch") {
			t.Errorf("workers=1 verdict %q, want a behavior mismatch at case 0", v)
		}
	}
	if strings.Join(par, "\n") != strings.Join(seq, "\n") {
		t.Errorf("workers=2 verdicts differ from workers=1:\n%s\nvs\n%s",
			strings.Join(par, "\n"), strings.Join(seq, "\n"))
	}
}

// TestCancelAboveKillIsNotTimeout: cases cancelled because a lower
// position already killed the candidate are discarded, never reported as
// a timeout — not in the journal and not in synth.candidate_timeouts —
// even with a per-candidate budget configured. The smallest case runs
// briefly and faults, while the next one, started beside it, would run
// until its step fuel is spent.
func TestCancelAboveKillIsNotTimeout(t *testing.T) {
	src := guardedFFT(`    if (n == 64) {
        for (int i = 0; i < 20000; i++) { n = n + 0; }
        x[n * 64].re = 1.0;
    }
    if (n == 128) { while (1) { n = n + 1; } }
`)
	for run := 0; run < 3; run++ {
		_, tr, j := synthFixture(t, src,
			Options{NumTests: 3, Workers: 2, CandidateTimeout: time.Minute})
		if got := tr.Metrics().Counters()["synth.candidate_timeouts"]; got != 0 {
			t.Fatalf("run %d: %d candidate timeouts from cases cancelled above a kill", run, got)
		}
		verdicts := fuzzVerdicts(j)
		if len(verdicts) == 0 {
			t.Fatal("fixture drifted: no candidate was fuzzed")
		}
		for _, v := range verdicts {
			if !strings.Contains(v, "|fault|tests=1|") {
				t.Fatalf("run %d: verdict %q, want a fault at case 0", run, v)
			}
		}
		// Uncancelled, the runaway case would spend its whole step fuel
		// (40M) before faulting.
		if steps := tr.Metrics().Counters()["interp.steps"]; steps >= 40_000_000 {
			t.Fatalf("run %d: %d interpreter steps: the case above the kill was not cancelled",
				run, steps)
		}
	}
}

// TestCancelHungCandidateByTimeout: CandidateTimeout covers a
// candidate's whole case batch, so at Workers=2 a candidate whose every
// case hangs is still rejected with a "timeout" verdict and synthesis
// moves on to the next candidate.
func TestCancelHungCandidateByTimeout(t *testing.T) {
	src := guardedFFT("    while (1) { n = n + 1; }\n")
	res, tr, j := synthFixture(t, src,
		Options{NumTests: 3, Workers: 2, CandidateTimeout: 50 * time.Millisecond})
	if res.Adapter != nil {
		t.Fatal("an adapter survived a program that never returns")
	}
	verdicts := fuzzVerdicts(j)
	if len(verdicts) != res.Tested || res.Tested == 0 {
		t.Fatalf("%d fuzz verdicts for %d tested candidates", len(verdicts), res.Tested)
	}
	for _, v := range verdicts {
		if !strings.Contains(v, "|timeout|tests=0|") {
			t.Errorf("verdict %q, want a timeout", v)
		}
	}
	if got := tr.Metrics().Counters()["synth.candidate_timeouts"]; got != int64(res.Tested) {
		t.Errorf("synth.candidate_timeouts = %d, want %d", got, res.Tested)
	}
}

// TestCancelledRunIsNeverAFault: a case run under a cancelled context is
// a cancellation, never evidence against the binding. A machine acquire
// racing ctx.Done returns a bare ctx.Err(), which the interpreter's
// fault classifier maps to "none"; the runner must not book that as a
// fault, and the candidate's fold must not turn it into a kill.
func TestCancelledRunIsNeverAFault(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	fn, spec, prof := f.Func("fft"), accel.NewFFTA(), pow2Profile("n")
	cands := binding.Enumerate(analysis.AnalyzeFunc(f, fn), spec, prof, binding.Options{})
	if len(cands) == 0 {
		t.Fatal("fixture drifted: no candidates")
	}
	cand := cands[0]
	opts := Options{Workers: 2}
	opts.defaults()
	tc := iogen.New(opts.Seed, cand, prof).Case(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for i := 0; i < 200; i++ {
		orc := newOracle(f, fn, spec.Name, 1, nil, nil, nil)
		if r := runCase(ctx, cand, tc, 0, orc, allSketches, opts.Tolerance); r.refErr != nil {
			t.Fatalf("run %d: cancelled run booked as fault %q (%v)",
				i, interp.FaultOf(r.refErr), r.refErr)
		}
	}

	opts.Kills, opts.Journal = obs.NewKillTable(), obs.NewJournal()
	orc := newOracle(f, fn, spec.Name, opts.Workers, nil, nil, nil)
	ad, err := testCandidate(ctx, fn, cand, prof, opts, nil, orc, nil)
	if ad != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled candidate: adapter=%v err=%v, want a context.Canceled error", ad, err)
	}
	for _, ev := range opts.Journal.Events() {
		if ev.Kind == obs.KindFuzz {
			t.Errorf("cancelled candidate journaled a %q verdict", ev.Outcome)
		}
	}
	for _, ev := range opts.Kills.Events() {
		t.Errorf("cancelled candidate recorded a kill: %+v", ev)
	}
}

// TestOracleSharesReferenceRuns: candidates that differ only in
// accelerator-side knobs (direction constants/maps, flags) must share the
// user program's reference executions. The FFTW target multiplies exactly
// such candidates, so the cache hit rate must clear 50% — the economics
// the oracle exists for.
func TestOracleSharesReferenceRuns(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", dirFlagSrc)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	tr := obs.New()
	sp := tr.Span("synthesize")
	res, err := Synthesize(context.Background(), f, f.Func("fft_dir"),
		accel.NewFFTWLib(), pow2Profile("n", 16, 32, 64),
		Options{NumTests: 4, Workers: 1, Obs: sp, ExhaustAll: true})
	sp.End()
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if res.Adapter == nil {
		t.Fatalf("no adapter: %s", res.FailReason)
	}
	c := tr.Metrics().Counters()
	hits, misses := c["synth.oracle_hits"], c["synth.oracle_misses"]
	if hits == 0 {
		t.Fatal("oracle cache never hit across accelerator-side candidate variants")
	}
	if rate := float64(hits) / float64(hits+misses); rate <= 0.5 {
		t.Errorf("oracle hit rate = %.2f (hits=%d misses=%d), want > 0.5",
			rate, hits, misses)
	}
}

// TestPoolCancellation: cancelling the run context aborts a parallel
// synthesis with a wrapping error rather than hanging or succeeding.
func TestPoolCancellation(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Synthesize(ctx, f, f.Func("fft"), accel.NewFFTA(), pow2Profile("n"),
		Options{NumTests: 4, Workers: 2})
	if err == nil {
		t.Fatal("cancelled synthesis returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}
