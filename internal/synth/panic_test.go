package synth

import (
	"context"
	"testing"

	"facc/internal/accel"
	"facc/internal/fft"
	"facc/internal/minic"
	"facc/internal/obs"
)

// TestPanicInAcceleratorIsIsolated: a Go panic inside a candidate's
// accelerator call (a buggy device backend) must not kill the process or
// the compilation — the candidate is rejected with a "panic" verdict and
// synthesis finishes cleanly.
func TestPanicInAcceleratorIsIsolated(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	spec := accel.NewFFTA()
	spec.Exec = accel.RunnerFunc(func([]complex128, fft.Direction) ([]complex128, error) {
		panic("device driver bug")
	})
	tr := obs.New()
	j := obs.NewJournal()
	sp := tr.Span("synthesize")
	// Workers: 2 — the panic happens in a case goroutine and must still
	// reach the candidate's shield; this backend closure is stateless.
	res, err := Synthesize(context.Background(), f, f.Func("fft"), spec, pow2Profile("n"),
		Options{NumTests: 4, Obs: sp, Journal: j, Workers: 2})
	sp.End()
	if err != nil {
		t.Fatalf("panics escalated into a synthesis error: %v", err)
	}
	if res.Adapter != nil {
		t.Fatal("an adapter survived a backend that panics on every call")
	}
	if got := tr.Metrics().Counters()["synth.panics"]; got == 0 {
		t.Fatal("synth.panics = 0: the recover path never ran")
	}
	if res.Tested < 2 {
		t.Fatalf("res.Tested = %d: synthesis stopped at the first panic", res.Tested)
	}
	sawVerdict := false
	for _, ev := range j.Events() {
		if ev.Kind == obs.KindFuzz && ev.Outcome == "panic" {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Fatal("journal has no panic verdict")
	}
}

// TestPanicCostsOneCandidate: with a backend that panics exactly once,
// only the candidate under test at that moment is rejected — it gets a
// single "panic" verdict and fuzzing demonstrably continues to later
// candidates. (The poisoned candidate here happens to be the unique
// winner, so no adapter results; the point is the blast radius, not the
// outcome.)
func TestPanicCostsOneCandidate(t *testing.T) {
	f, err := minic.ParseAndCheck("t.c", radix2Struct)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	spec := accel.NewFFTA()
	calls := 0
	spec.Exec = accel.RunnerFunc(func(in []complex128, dir fft.Direction) ([]complex128, error) {
		calls++
		if calls == 1 {
			panic("one-shot driver bug")
		}
		return spec.Simulate(in, dir)
	})
	j := obs.NewJournal()
	// Workers: 1 — the one-shot calls counter is unsynchronized and the
	// "exactly one panic verdict" claim needs sequential candidate order.
	res, err := Synthesize(context.Background(), f, f.Func("fft"), spec, pow2Profile("n"),
		Options{NumTests: 4, Journal: j, Workers: 1})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	panics := 0
	continued := false
	for _, ev := range j.Events() {
		if ev.Kind != obs.KindFuzz {
			continue
		}
		if ev.Outcome == "panic" {
			panics++
		} else if panics > 0 {
			continued = true
		}
	}
	if panics != 1 {
		t.Fatalf("%d panic verdicts, want exactly 1", panics)
	}
	if !continued {
		t.Fatal("no candidates fuzzed after the panic: the shield did not contain it")
	}
	if res.Tested < 2 {
		t.Fatalf("res.Tested = %d, want at least the poisoned candidate plus one more", res.Tested)
	}
}
