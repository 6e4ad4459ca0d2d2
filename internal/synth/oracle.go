package synth

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"facc/internal/binding"
	"facc/internal/interp"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
)

// OracleCache memoizes the reference side of generate-and-test: the user
// program's output for one test case. Binding enumeration multiplies
// candidates along accelerator-side axes — direction constants, flags
// specializations, and the *target itself* — that the user program
// cannot observe, so those candidates would re-interpret the same MiniC
// function on the same inputs once each. The cache computes each
// distinct user-side run once and shares it.
//
// The key is target-independent by construction:
//
//	fn=<file/function digest>|<iogen.RefSig(cand)>|io=<iogen.CaseDigest(case)>
//
// RefSig fixes how test bytes are laid out in the user's arrays (array
// layouts, length binding, pins, the free set — everything user-visible
// about the candidate except the spec), and CaseDigest hashes the bytes
// themselves (lengths, scalars, the signal bits). Candidates for
// ffta, powerquad and fftw that agree on both therefore share one entry
// — which is why eval.CompileAll hands all three targets' compiles of a
// program one shared cache instead of re-interpreting it 3×. The
// file/function digest scopes entries so one process-wide cache can
// span files without aliasing (the same source parsed twice hashes
// equal and still shares). Different fuzz seeds draw different signals,
// so their digests — and keys — never collide.
//
// The cached value is exact under the same assumption generate-and-test
// already makes of the reference function: that it is observationally
// deterministic per call (idempotent memoization of twiddle tables and
// the like is fine; interpreter machines keep their globals across runs
// precisely so such caches stay warm).
//
// A nil *OracleCache is not usable; Synthesize builds a private one
// when Options.Oracle is unset, so sharing is strictly opt-in.
type OracleCache struct {
	mu      sync.Mutex
	entries map[string]*oracleEntry

	hits, misses atomic.Int64
}

// NewOracleCache returns an empty cache, ready to be shared across
// Synthesize calls and targets via Options.Oracle.
func NewOracleCache() *OracleCache {
	return &OracleCache{entries: map[string]*oracleEntry{}}
}

// entry returns the slot for key, creating it on first sight.
func (c *OracleCache) entry(key string) *oracleEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = &oracleEntry{}
		c.entries[key] = e
	}
	return e
}

// Stats reports cache-wide effectiveness over every lookup this cache
// has served (across all Synthesize calls and targets sharing it).
func (c *OracleCache) Stats() (hits, misses int64, rate float64) {
	hits, misses = c.hits.Load(), c.misses.Load()
	if total := hits + misses; total > 0 {
		rate = float64(hits) / float64(total)
	}
	return hits, misses, rate
}

// FileDigest canonicalizes a parsed file to its printed form and hashes
// it with the function name — the scope prefix of oracle keys. Two
// parses of the same source digest equal, so re-parsed copies of one
// program (eval compiles each benchmark once per target) share entries.
func FileDigest(f *minic.File, fn string) string {
	src := minic.PrintFile(f)
	h := uint64(14695981039346656037)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= 1099511628211
	}
	h ^= uint64('|')
	h *= 1099511628211
	for i := 0; i < len(fn); i++ {
		h ^= uint64(fn[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("%016x", h)
}

// oracleKey builds the full target-independent cache key for one
// (candidate, case) reference run.
func oracleKey(fileKey string, cand *binding.Candidate, tc iogen.Case) string {
	return "fn=" + fileKey + "|" + iogen.RefSig(cand) + "|io=" + iogen.CaseDigest(tc)
}

// oracle is one Synthesize call's view of the cache: it owns the
// interpreter machine pool (machines are per-file) and the per-run
// hit/miss counters the journal reports, while the entry map may be
// shared process-wide via Options.Oracle.
//
// Machines are pooled (bounded by the worker count) rather than built
// per candidate: interpreter construction re-runs global initializers,
// and a warm machine carries memoized twiddles across candidates.
// Results of cancelled or timed-out runs are never cached — the next
// candidate recomputes them under its own budget.
type oracle struct {
	f       *minic.File
	fn      *minic.FuncDecl
	fileKey string
	// reg (nil-safe) receives interp.* work counters and the
	// synth.oracle_hits / synth.oracle_misses pairs.
	reg *obs.Registry
	// led (nil-safe) charges each lookup and each miss's interpreter
	// work to the candidate that issued it.
	led *obs.Ledger

	machines chan *interp.Machine // tokens; nil = build lazily on first use

	cache *OracleCache

	hits, misses atomic.Int64 // this Synthesize call's lookups only

	// Blended and per-target lookup counters, resolved once at
	// construction so the per-case path does no map lookups or string
	// concatenation. All candidates of one synthesis share one target.
	hitsCtr, missesCtr       *obs.Counter
	hitsTgtCtr, missesTgtCtr *obs.Counter
}

// oracleEntry is one memoized user-side run. The per-entry mutex (rather
// than sync.Once) keeps the slot retryable: a run aborted by a candidate
// deadline or a panic leaves done=false and the next candidate recomputes.
type oracleEntry struct {
	mu   sync.Mutex
	done bool
	out  []complex128
	ret  *int64
	err  error
}

func newOracle(f *minic.File, fn *minic.FuncDecl, target string, workers int,
	reg *obs.Registry, led *obs.Ledger, shared *OracleCache) *oracle {
	if shared == nil {
		shared = NewOracleCache()
	}
	o := &oracle{
		f:        f,
		fn:       fn,
		fileKey:  FileDigest(f, fn.Name),
		reg:      reg,
		led:      led,
		machines: make(chan *interp.Machine, workers),
		cache:    shared,
	}
	if reg != nil {
		o.hitsCtr = reg.Counter("synth.oracle_hits")
		o.missesCtr = reg.Counter("synth.oracle_misses")
		o.hitsTgtCtr = reg.Counter("synth.oracle_hits." + target)
		o.missesTgtCtr = reg.Counter("synth.oracle_misses." + target)
	}
	for i := 0; i < workers; i++ {
		o.machines <- nil
	}
	return o
}

// acquire takes a machine token from the pool, building the machine on
// first use. It respects ctx so a cancelled case does not sit in the
// queue behind long-running reference executions; it then returns a bare
// ctx.Err(), which the case runner books as a cancellation.
func (o *oracle) acquire(ctx context.Context) (*interp.Machine, error) {
	select {
	case m := <-o.machines:
		if m == nil {
			mm, err := interp.NewMachine(o.f)
			if err != nil {
				o.machines <- nil
				return nil, fmt.Errorf("synth: %w", err)
			}
			mm.MaxSteps = 40_000_000
			mm.Obs = o.reg // interp.faults.* attribution (nil-safe)
			m = mm
		}
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run returns the user program's output for case tc (the caseIdx-th case
// of cand's generator), computing it at most once per distinct user-side
// run. The returned slice is shared across candidates and must be treated
// as read-only. Interpreter faults (out-of-bounds etc.) are cached too —
// they are deterministic evidence against every candidate with this
// signature — but cancellation/timeout errors are returned uncached.
// steps reports the interpreter steps this call actually spent: the
// miss's run cost, or 0 on a cache hit (shared work was already paid
// for) — the "interp steps at death" the kill table attributes.
func (o *oracle) run(ctx context.Context, cand *binding.Candidate,
	tc iogen.Case, caseIdx int) (out []complex128, ret *int64, steps int64, err error) {
	e := o.cache.entry(oracleKey(o.fileKey, cand, tc))

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		o.hits.Add(1)
		o.cache.hits.Add(1)
		o.hitsCtr.Inc()
		o.hitsTgtCtr.Inc()
		if o.led != nil {
			// A hit is shared work: some candidate already paid for this
			// reference run; this one reuses it for free.
			o.led.ChargeOracle(o.fn.Name, cand.Spec.Name, cand.Key(), true)
		}
		return e.out, e.ret, 0, e.err
	}
	o.misses.Add(1)
	o.cache.misses.Add(1)
	o.missesCtr.Inc()
	o.missesTgtCtr.Inc()
	if o.led != nil {
		o.led.ChargeOracle(o.fn.Name, cand.Spec.Name, cand.Key(), false)
	}

	m, merr := o.acquire(ctx)
	if merr != nil {
		return nil, nil, 0, merr
	}
	prev := m.TotalCounters()
	m.Ctx = ctx
	defer func() {
		if r := recover(); r != nil {
			// The interpreter panicked mid-run: the machine state is
			// suspect, so drop it and hand the pool a fresh token before
			// re-raising into the candidate's panic shield.
			o.machines <- nil
			panic(r)
		}
		delta := m.TotalCounters().Sub(prev)
		steps = delta.Steps // fills the named result on every miss exit
		o.reg.Counter("interp.ops").Add(delta.Total())
		o.reg.Counter("interp.allocs").Add(delta.Allocs)
		o.reg.Counter("interp.steps").Add(delta.Steps)
		if o.led != nil {
			// The interpreter work of a miss is charged to the candidate
			// that triggered it — later candidates with the same signature
			// hit the cache and share it for free.
			o.led.ChargeInterp(o.fn.Name, cand.Spec.Name, cand.Key(),
				delta.Steps, delta.Total())
		}
		o.machines <- m
	}()
	uout, uret, rerr := runUser(m, o.fn, cand, tc)
	if rerr != nil && (interp.FaultOf(rerr) == interp.FaultCancelled || ctx.Err() != nil) {
		return nil, nil, 0, rerr
	}
	e.done = true
	e.out, e.ret, e.err = uout, uret, rerr
	return uout, uret, 0, rerr
}

// stats reports cache effectiveness for this Synthesize call: hits,
// misses, and the hit rate over its lookups (0 when nothing was looked
// up). Lookups other calls issued against a shared cache are excluded.
func (o *oracle) stats() (hits, misses int64, rate float64) {
	hits, misses = o.hits.Load(), o.misses.Load()
	if total := hits + misses; total > 0 {
		rate = float64(hits) / float64(total)
	}
	return hits, misses, rate
}
