package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"facc"
	"facc/internal/synth"
)

// outcome is one finished compile, reduced to the strings the checker and
// the exactness guard need, so no compilation outlives its measurement.
type outcome struct {
	r        request
	dur      time.Duration
	err      error
	adapter  string
	function string
	sig      string
	reason   string
	unit     string
	unitErr  error
	funcs    []string       // functions the compile attempted, in order
	winner   *synth.Adapter // the accepted binding, for the layer replay
}

func (o *outcome) key() string {
	return fmt.Sprintf("%q|%q|%q|%v", o.adapter, o.function, o.reason, o.err)
}

// compileOne runs one request and reduces the result. Only the
// CompileRequestContext call is timed.
func compileOne(ctx context.Context, r request, opts facc.Options) outcome {
	start := time.Now()
	res, err := facc.CompileRequestContext(ctx, r.req, opts)
	o := outcome{r: r, dur: time.Since(start), err: err}
	if err != nil {
		return o
	}
	for _, fr := range res.Raw().Functions {
		o.funcs = append(o.funcs, fr.Function)
	}
	if res.OK() {
		o.winner = res.Raw().Success().Result.Adapter
		o.adapter, o.function, o.sig = res.AdapterC(), res.Function(), res.Sig()
		o.unit, o.unitErr = res.IntegratedUnit()
	} else {
		o.reason = res.FailReason()
	}
	return o
}

// check judges one outcome against the corpus ground truth and returns
// the adapter's modelled speedup (0 for a correct rejection).
func (c *checker) check(o *outcome) (adapterCheck, error) {
	switch {
	case o.err != nil:
		return adapterCheck{}, fmt.Errorf("%s/%s: %w", o.r.b.Name, o.r.req.Target, o.err)
	case o.adapter == "":
		return adapterCheck{}, checkRejection(o.r.b, o.reason)
	case o.unitErr != nil:
		return adapterCheck{}, fmt.Errorf("%s/%s: integrated unit: %w", o.r.b.Name, o.r.req.Target, o.unitErr)
	}
	return c.checkAdapter(o.r.b, o.r.req.Target, o.function, o.unit)
}

// compilePasses runs whole passes over reqs, one compile at a time in a
// closed loop, until at least minPasses passes and seconds have elapsed.
// Each pass visits the requests in a seeded order; passes are whole so
// every run weighs every request equally. afterPass, when set, runs after
// each pass.
func compilePasses(ctx context.Context, reqs []request, opts facc.Options, seconds float64, minPasses int, rng *rand.Rand, afterPass func()) [][]outcome {
	var passes [][]outcome
	var busy time.Duration
	for len(passes) < minPasses || busy.Seconds() < seconds {
		var pass []outcome
		for _, r := range shuffled(reqs, rng) {
			o := compileOne(ctx, r, opts)
			busy += o.dur
			pass = append(pass, o)
		}
		passes = append(passes, pass)
		if afterPass != nil {
			afterPass()
		}
	}
	return passes
}

// compileResult is a checked compile workload run.
type compileResult struct {
	attempted, failed int
	errs              []string
	speedups          []float64
	adapters          int
	first, repeat     []float64 // latencies (ms) of first-pass and later-pass compiles
	busy              time.Duration
	passRates         []float64 // compiles per second of each pass
	idle              []string  // adapters that never offloaded at the checked lengths
}

// judge checks every outcome, holds every pass to the first pass's
// outputs (compiles are deterministic), and collects the metrics' inputs.
func judge(c *checker, passes [][]outcome) compileResult {
	var cr compileResult
	// Warm the checker's memo in parallel; the tally below then reads it.
	first := make([]*outcome, len(passes[0]))
	for i := range passes[0] {
		first[i] = &passes[0][i]
	}
	c.warm(first)
	parallel(len(first), func(i int) { c.check(first[i]) })
	firstByKey := map[string]string{}
	for pi, pass := range passes {
		var passBusy time.Duration
		for i := range pass {
			passBusy += pass[i].dur
		}
		cr.passRates = append(cr.passRates, float64(len(pass))/passBusy.Seconds())
		for i := range pass {
			o := &pass[i]
			cr.attempted++
			cr.busy += o.dur
			lat := ms(o.dur)
			id := o.r.req.Digest()
			if pi == 0 {
				cr.first = append(cr.first, lat)
				firstByKey[id] = o.key()
			} else {
				cr.repeat = append(cr.repeat, lat)
			}
			ac, err := c.check(o)
			if err == nil && pi > 0 && firstByKey[id] != o.key() {
				err = fmt.Errorf("%s/%s: pass %d output differs from pass 1", o.r.b.Name, o.r.req.Target, pi+1)
			}
			if err != nil {
				cr.failed++
				cr.errs = append(cr.errs, err.Error())
				continue
			}
			if pi == 0 && o.adapter != "" {
				cr.adapters++
				cr.speedups = append(cr.speedups, ac.speedup)
				if ac.offloads == 0 {
					cr.idle = append(cr.idle, fmt.Sprintf("%s/%s (%s)", o.r.b.Name, o.r.req.Target, o.function))
				}
			}
		}
	}
	return cr
}

// setupRepeats is how many times a run times its set-up; the median is
// reported.
const setupRepeats = 31

// runCompileWorkload is compile-pinned or compile-whole: closed-loop
// compiles through facc.CompileRequestContext with production defaults
// (10 tests, Workers = GOMAXPROCS, a private oracle per compile).
func runCompileWorkload(cfg config, build func() []request) (*report, error) {
	var setups []float64
	var reqs []request
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		reqs = build()
		for _, r := range reqs {
			if err := r.req.Validate(); err != nil {
				return nil, err
			}
			r.req.Digest()
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if cfg.trace {
		return traceCompileWorkload(cfg, reqs)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	rss := sampleRSS()
	passes := compilePasses(ctx, reqs, facc.Options{}, cfg.seconds, 2, rng, rss.mark)
	peaks := rss.close()
	cr := judge(newChecker(cfg.seed, cfg.refDir), passes)

	rep := newReport()
	rep.attempted, rep.failed, rep.errs = cr.attempted, cr.failed, cr.errs
	if len(cr.idle) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d adapters never offload at the checked lengths: %s\n",
			len(cr.idle), strings.Join(cr.idle, ", "))
	}
	all := append(append([]float64(nil), cr.first...), cr.repeat...)
	// The median pass, so one pass slowed by a noisy neighbour does not
	// move the figure.
	perS := median(cr.passRates)
	rep.set("compiles_per_s", "1/s", perS)
	rep.set("serve_rps", "1/s", perS)
	rep.set("compile_ms_p50", "ms", median(all))
	rep.set("compile_ms_p90", "ms", quantile(all, 0.9))
	rep.set("miss_ms_p50", "ms", median(cr.first))
	rep.set("miss_ms_p90", "ms", quantile(cr.first, 0.9))
	rep.set("hit_ms_p50", "ms", median(cr.repeat))
	rep.setExact("speedup_geomean", "x", geomean(cr.speedups))
	rep.exact["adapters"] = float64(cr.adapters)
	rep.set("ok_frac", "fraction", 1-float64(cr.failed)/float64(cr.attempted))
	rep.set("peak_rss_mb", "MB", median(peaks))
	rep.set("setup_s", "s", median(setups))
	return rep, nil
}
