// In-order generate-and-test with case-level parallelism. Candidates are
// tested strictly in enumeration order: the first survivor wins, and no
// candidate runs before every earlier one is decided, so the winner, the
// Tested/Survivors counts, the journal and the kill table are those of
// the plain sequential loop.
//
// Parallelism lives inside one candidate. Up to Workers of its IO cases
// run at once — each case is the reference run through the shared
// oracle, the device run and the sketch compare — and their results are
// folded in replay order, so the verdict is the one the case-by-case
// loop reaches: the kill is the lowest failing position. Once a kill is
// known, every position above it is cancelled and its result discarded.
// Workers=1 is the same runner with one worker: one case at a time,
// stopping at the kill.
//
// Metrics counters (synth.tests_run, interp.*) and the ledger keep
// counting cases that ran above a kill before they were cancelled —
// they describe effort spent, not the search outcome.
package synth

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"facc/internal/analysis"
	"facc/internal/behave"
	"facc/internal/binding"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
)

// sketches is the canonical post-behavioral sketch order; bit i of a
// sketch mask stands for sketches[i].
var sketches = behave.Sketches()

// allSketches is the mask with every sketch alive.
var allSketches = uint(1)<<len(sketches) - 1

// runCandidates tests cands in enumeration order and returns the winner
// with the (tested, survivors) counts. On error (whole-run cancellation)
// the counts are meaningless and the caller must discard the Result.
func runCandidates(ctx context.Context, fn *minic.FuncDecl,
	cands []*binding.Candidate, profile *analysis.Profile, opts Options,
	orc *oracle, replay map[string]int) (*Adapter, int, int, error) {
	var winner *Adapter
	survivors := 0
	for i, cand := range cands {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, fmt.Errorf("synth: %s: %w", fn.Name, err)
		}
		var fsp *obs.Span
		if opts.Obs != nil {
			fsp = opts.Obs.Child("fuzz").
				Str("binding", cand.Key()).
				Int("candidate", int64(i+1))
		}
		ad, err := evalCandidate(ctx, fn, cand, profile, opts, fsp, orc, replay)
		fsp.End()
		if err != nil {
			return nil, 0, 0, err
		}
		if ad == nil {
			continue
		}
		if !opts.ExhaustAll {
			return ad, i + 1, 1, nil
		}
		survivors++
		if winner == nil {
			winner = ad
		}
	}
	return winner, len(cands), survivors, nil
}

// caseResult is one replay position's outcome, recorded independently of
// every other position.
type caseResult struct {
	done      bool // the case ran (possibly cut short); false = never started
	cancelled bool // the reference run was cut short by its context
	panicked  bool
	pval      any   // the recovered panic value
	refErr    error // the reference run faulted (out-of-bounds, ...)
	devErr    error // the device rejected the input
	// mask has bit i set when sketches[i] reproduces the user output.
	// It is 0 whenever the case cannot survive (fault, rejection,
	// cancellation, panic), so a zero mask always ends the fold.
	mask  uint
	ret   *int64
	steps int64
}

// runCases runs one candidate's cases on up to workers goroutines and
// returns each replay position's result with the number of cases that
// started. Positions start in replay order. A position above the lowest
// known kill is never started, and one already running is cancelled, so
// its result (if any) lies above the kill and the fold never reads it. A
// position left unstarted because ctx expired reads as not done.
func runCases(ctx context.Context, cand *binding.Candidate, cases []iogen.Case,
	order []int, orc *oracle, workers int, tol float64) ([]caseResult, int) {
	n := len(order)
	res := make([]caseResult, n)
	cancels := make([]context.CancelFunc, n)
	var (
		mu     sync.Mutex
		next   int           // next position to start
		kill   = n           // lowest position known to end the fold
		folded int           // positions below this are folded into alive
		alive  = allSketches // sketches surviving positions [0, folded)
		busy   atomic.Int64
	)
	worker := func() {
		for {
			mu.Lock()
			// Accelerator retries/backoff can dominate a case under fault
			// injection, so honor the deadline between cases too, not just
			// inside the interpreter.
			if next >= n || next > kill || ctx.Err() != nil {
				mu.Unlock()
				return
			}
			p, mask := next, alive
			next++
			pctx, cancel := context.WithCancel(ctx)
			cancels[p] = cancel
			mu.Unlock()

			orc.reg.Gauge("synth.pool_busy").Set(float64(busy.Add(1)))
			r := runCase(pctx, cand, cases[order[p]], order[p], orc, mask, tol)
			orc.reg.Gauge("synth.pool_busy").Set(float64(busy.Add(-1)))
			cancel()

			mu.Lock()
			res[p] = r
			if r.mask == 0 && p < kill {
				kill = p
			}
			for ; folded < kill && res[folded].done; folded++ {
				if alive &= res[folded].mask; alive == 0 {
					kill = folded
				}
			}
			for q := kill + 1; q < next; q++ {
				cancels[q]()
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	return res, next
}

// runCase runs case tc (the caseIdx-th of cand's batch) and records its
// outcome. Only the sketches in alive are compared: the rest already
// failed a lower position, so their bits cannot matter to the fold. A
// panic is recovered here and handed to the fold, which re-raises it on
// the candidate's goroutine.
func runCase(ctx context.Context, cand *binding.Candidate, tc iogen.Case,
	caseIdx int, orc *oracle, alive uint, tol float64) (r caseResult) {
	defer func() {
		if v := recover(); v != nil {
			r = caseResult{done: true, panicked: true, pval: v}
		}
	}()
	r.done = true
	userOut, ret, steps, err := orc.run(ctx, cand, tc, caseIdx)
	r.steps = steps
	if err != nil {
		// Any error while the case's context is done is a cancellation,
		// never evidence against the binding: a cancelled machine acquire
		// returns a bare ctx.Err(), which is no interpreter fault.
		if interp.FaultOf(err) == interp.FaultCancelled || ctx.Err() != nil {
			r.cancelled = true
		} else {
			r.refErr = err
		}
		return r
	}
	r.ret = ret
	accelOut, err := runAccel(cand, tc)
	if err != nil {
		r.devErr = err
		return r
	}
	for i, op := range sketches {
		if alive&(1<<i) == 0 {
			continue
		}
		patched := append([]complex128(nil), accelOut...)
		op.Apply(patched)
		if vectorsClose(userOut, patched, tol) {
			r.mask |= 1 << i
		}
	}
	return r
}
