package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"facc"
	"facc/internal/accel"
	"facc/internal/analysis"
	"facc/internal/bench"
	"facc/internal/binding"
	"facc/internal/codegen"
	"facc/internal/core"
	"facc/internal/fft"
	"facc/internal/iogen"
	"facc/internal/minic"
	"facc/internal/obs"
	"facc/internal/store"
)

// synthSeed is synth's default root seed; the replay draws the same IO
// cases the compile drew.
const synthSeed = 424242

// spanRec is one recorded call into a layer.
type spanRec struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Req     string  `json:"req"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// recorder keeps the benchmark's spans in memory until the run ends.
// Spans are recorded around calls into the program, never inside it.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span times f as a child of parent and returns its id and duration.
func (r *recorder) span(name, req string, parent int64, f func(id int64)) time.Duration {
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Name: name, Req: req})
	r.mu.Unlock()
	start := time.Now()
	f(id)
	end := time.Now()
	r.mu.Lock()
	r.spans[id-1].StartUS = us(start.Sub(r.t0))
	r.spans[id-1].EndUS = us(end.Sub(r.t0))
	r.mu.Unlock()
	return end.Sub(start)
}

// selfMS sums the self time of every span named name — its duration
// minus the part its children cover — and counts the spans.
func (r *recorder) selfMS(name string) (float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := map[int64]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	total, n := 0.0, 0
	for _, s := range r.spans {
		if s.Name == name {
			total += (s.EndUS - s.StartUS - child[s.ID]) / 1000
			n++
		}
	}
	return total, n
}

// meanSelfMS is selfMS per span.
func (r *recorder) meanSelfMS(name string) float64 {
	total, n := r.selfMS(name)
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return f.Close()
}

// layerStats accumulates the replay's exact counts and memory deltas.
type layerStats struct {
	steps, refRuns, mallocs, allocBytes int64
	candidates, cases, adapterBytes     int64
}

// replayLayers calls each layer's exported functions on one compile's
// inputs: parse and check, binding enumeration over every function the
// compile attempted, IO generation for the winner, the reference runs
// and device runs on those cases, and adapter emission. It returns an
// error when the replay disagrees with the compile.
func replayLayers(rec *recorder, st *layerStats, spec *accel.Spec, o *outcome) error {
	req := o.r.req.Digest()[:12]
	var err error
	rec.span("replay", req, 0, func(root int64) {
		var f *minic.File
		rec.span("minic.parse_check", req, root, func(int64) {
			f, err = minic.ParseAndCheck(o.r.req.Name, o.r.req.Source)
		})
		if err != nil {
			return
		}
		profile := core.BuildProfile(o.r.req.ProfileValues)
		rec.span("binding.enumerate", req, root, func(int64) {
			for _, name := range o.funcs {
				fn := f.Func(name)
				if fn == nil {
					err = fmt.Errorf("%s: no function %q", o.r.b.Name, name)
					return
				}
				st.candidates += int64(len(binding.Enumerate(analysis.AnalyzeFunc(f, fn), spec, profile, binding.Options{})))
			}
		})
		if err != nil || o.winner == nil {
			return
		}
		var cases []iogen.Case
		rec.span("iogen.cases", req, root, func(int64) {
			cases = iogen.New(synthSeed, o.winner.Cand, profile).Cases(10)
		})
		st.cases += int64(len(cases))
		err = replayRuns(rec, st, spec, o.r.b, cases, req, root)
		if err != nil {
			return
		}
		var text string
		rec.span("codegen.emit", req, root, func(int64) {
			text = codegen.Emit(o.winner, f.Func(o.winner.FuncName))
		})
		st.adapterBytes += int64(len(text))
		if !strings.HasSuffix(o.adapter, text) {
			err = fmt.Errorf("%s/%s: replayed codegen.Emit differs from the compiled adapter", o.r.b.Name, o.r.req.Target)
		}
	})
	return err
}

// replayRuns runs the unmodified program (the reference side of each IO
// test) and the device on each case. Allocation deltas are taken on this
// goroutine while nothing else runs.
func replayRuns(rec *recorder, st *layerStats, spec *accel.Spec, b *bench.Benchmark, cases []iogen.Case, req string, root int64) error {
	r, err := bench.NewRunner(b)
	if err != nil {
		return err
	}
	for _, c := range cases {
		n := len(c.Input)
		if !b.SupportsSize(n) {
			continue
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		rec.span("interp.reference", req, root, func(int64) {
			r.Machine.Reset()
			_, err = r.Run(c.Input)
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("%s n=%d: reference run: %w", b.Name, n, err)
		}
		st.steps += r.Machine.Counters.Steps
		st.refRuns++
		st.mallocs += int64(ms1.Mallocs - ms0.Mallocs)
		st.allocBytes += int64(ms1.TotalAlloc - ms0.TotalAlloc)
		if spec.Supports(n) {
			rec.span("accel.run", req, root, func(int64) {
				_, err = spec.Run(c.Input, fft.Forward)
			})
			if err != nil {
				return fmt.Errorf("%s n=%d: device run: %w", b.Name, n, err)
			}
		}
	}
	return nil
}

// layerReplay replays every accepted or rejected outcome in outs and
// reports the per-layer compile metrics.
func layerReplay(rec *recorder, rep *report, outs []outcome) {
	var st layerStats
	reg := obs.NewRegistry()
	var runs int64
	for i := range outs {
		o := &outs[i]
		spec, err := accel.SpecByName(o.r.req.Target)
		if err != nil {
			rep.fail(err)
			continue
		}
		spec.Instrument(reg)
		if err := replayLayers(rec, &st, spec, o); err != nil {
			rep.fail(err)
		}
	}
	for name, v := range reg.Counters() {
		if strings.HasPrefix(name, "accel.runs.") {
			runs += v
		}
	}
	refMS, _ := rec.selfMS("interp.reference")
	compiles := float64(len(outs))
	rep.setExact("interp.steps", "count", float64(st.steps))
	rep.set("interp.ns_per_step", "ns", refMS*1e6/float64(st.steps))
	rep.set("interp.ref_ms", "ms", rec.meanSelfMS("interp.reference"))
	rep.set("interp.alloc_bytes_per_step", "B", float64(st.allocBytes)/float64(st.steps))
	rep.set("interp.allocs_per_run", "count", float64(st.mallocs)/float64(st.refRuns))
	rep.setExact("binding.candidates", "count", float64(st.candidates))
	enumMS, _ := rec.selfMS("binding.enumerate")
	rep.set("binding.enumerate_ms", "ms", enumMS/compiles)
	rep.setExact("iogen.cases", "count", float64(st.cases))
	rep.set("iogen.gen_ms", "ms", rec.meanSelfMS("iogen.cases"))
	rep.setExact("accel.runs", "count", float64(runs))
	rep.set("accel.device_ms", "ms", rec.meanSelfMS("accel.run"))
	rep.set("minic.parse_check_ms", "ms", rec.meanSelfMS("minic.parse_check"))
	rep.setExact("codegen.adapter_bytes", "B", float64(st.adapterBytes))
	rep.set("codegen.emit_us", "us", rec.meanSelfMS("codegen.emit")*1000)
}

// tracedPasses compiles reqs twice in a closed loop with an obs.Tracer
// and obs.Ledger in facc.Options, and reports the synth counters and the
// fuzz span from the program's own instrumentation. Counts that depend
// on scheduling are reported as the median of the two passes with their
// spread. Every traced output must equal its untraced one.
func tracedPasses(rep *report, reqs []request, untraced map[string]string, rng *rand.Rand) float64 {
	var tested, tests, superseded, usefulFrac, hitRate, fuzzMS, perS []float64
	for pass := 0; pass < 2; pass++ {
		tr, led := obs.New(), obs.NewLedger()
		opts := facc.Options{Trace: tr, Ledger: led}
		var busy time.Duration
		order := shuffled(reqs, rng)
		for _, r := range order {
			o := compileOne(context.Background(), r, opts)
			busy += o.dur
			if want := untraced[r.req.Digest()]; want != o.key() {
				rep.fail(fmt.Errorf("%s/%s: traced compile differs from untraced", r.b.Name, r.req.Target))
			}
		}
		perS = append(perS, float64(len(order))/busy.Seconds())
		c := tr.Metrics().Counters()
		tested = append(tested, float64(c["synth.candidates_tested"]))
		tests = append(tests, float64(c["synth.tests_run"]))
		if l := c["synth.oracle_hits"] + c["synth.oracle_misses"]; l > 0 {
			hitRate = append(hitRate, float64(c["synth.oracle_hits"])/float64(l))
		}
		sum := led.Summary().Total
		if all := sum.UsefulTests + sum.SpeculativeTests; all > 0 {
			usefulFrac = append(usefulFrac, float64(sum.UsefulTests)/float64(all))
		}
		superseded = append(superseded, float64(sum.Verdicts["superseded"]))
		var fuzz time.Duration
		for _, s := range tr.Find("fuzz") {
			fuzz += s.Dur
		}
		fuzzMS = append(fuzzMS, ms(fuzz)/float64(len(order)))
	}
	rep.set("synth.candidates_tested", "count", median(tested))
	rep.set("synth.tests_run", "count", median(tests))
	rep.set("synth.tests_run_spread", "count", math.Abs(tests[1]-tests[0]))
	rep.set("synth.useful_frac", "fraction", median(usefulFrac))
	rep.set("synth.oracle_hit_rate", "fraction", median(hitRate))
	rep.set("synth.superseded", "count", median(superseded))
	rep.set("synth.fuzz_ms", "ms", median(fuzzMS))
	return median(perS)
}

// storeOp is one request's store traffic.
type storeOp struct {
	key   string
	entry *store.Entry // non-nil: Put after the Get misses
}

// storeReplay times the store calls a request stream causes: open, a Get
// per request and a Put per compiled miss, then the bytes on disk.
func storeReplay(rec *recorder, rep *report, dir string, ops []storeOp) error {
	var st *store.Store
	var err error
	openDur := rec.span("store.open", "", 0, func(int64) { st, err = store.Open(dir, nil) })
	if err != nil {
		return err
	}
	var gets, puts []float64
	for _, op := range ops {
		var ok bool
		gets = append(gets, us(rec.span("store.get", op.key[:12], 0, func(int64) { _, ok = st.Get(op.key) })))
		if !ok && op.entry != nil {
			d := rec.span("store.put", op.key[:12], 0, func(int64) { err = st.Put(op.key, *op.entry) })
			if err != nil {
				st.Close()
				return err
			}
			puts = append(puts, ms(d))
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	var size int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			size += fi.Size()
		}
		return nil
	})
	rep.set("store.open_ms", "ms", ms(openDur))
	rep.set("store.get_us_p50", "us", median(gets))
	rep.set("store.get_us_p99", "us", quantile(gets, 0.99))
	rep.set("store.put_ms_p50", "ms", median(puts))
	rep.set("store.disk_bytes", "B", float64(size))
	return nil
}

// serverMetrics reports the server layer from a stream of answers.
func serverMetrics(rep *report, answers []served, hits int64) {
	var jobMS, overhead []float64
	for _, a := range answers {
		if a.job.Cached {
			overhead = append(overhead, ms(a.lat)-a.job.ElapsedMS)
		} else {
			jobMS = append(jobMS, a.job.ElapsedMS)
		}
	}
	rep.set("server.hit_frac", "fraction", float64(hits)/float64(len(answers)))
	rep.set("server.job_ms_p50", "ms", median(jobMS))
	rep.set("server.overhead_ms_p50", "ms", median(overhead))
}

// traceCompileWorkload is the traced run of a compile workload: one
// untraced pass, two traced passes, the layer replay over the accepted
// and rejected compiles, the same traffic served twice by an in-process
// faccd on an empty store, and a store replay of that traffic.
func traceCompileWorkload(cfg config, reqs []request) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	passes := compilePasses(context.Background(), reqs, facc.Options{}, 0, 1, rng, nil)
	cr := judge(newChecker(cfg.seed, cfg.refDir), passes)
	rep.attempted, rep.failed, rep.errs = cr.attempted, cr.failed, cr.errs
	untraced := map[string]string{}
	for _, o := range passes[0] {
		untraced[o.r.req.Digest()] = o.key()
	}
	tracedPerS := tracedPasses(rep, reqs, untraced, rng)
	rep.set("trace.overhead_frac", "fraction", 1-tracedPerS*cr.busy.Seconds()/float64(cr.attempted))

	rec := newRecorder()
	layerReplay(rec, rep, passes[0])

	s, err := startSession(filepath.Join(cfg.work, "served"))
	if err != nil {
		return nil, err
	}
	var answers []served
	for round := 0; round < 2; round++ {
		for _, r := range shuffled(reqs, rng) {
			answers = append(answers, s.post(r))
		}
	}
	hits := s.tr.Metrics().Counter("serve.cache_hits").Value()
	if err := s.stop(); err != nil {
		return nil, err
	}
	serverMetrics(rep, answers, hits)

	var ops []storeOp
	for round := 0; round < 2; round++ {
		for i := range passes[0] {
			o := &passes[0][i]
			op := storeOp{key: o.r.req.Digest()}
			if o.adapter != "" {
				op.entry = &store.Entry{Target: o.r.req.Target, Function: o.function, Sig: o.sig, AdapterC: o.adapter}
			}
			ops = append(ops, op)
		}
	}
	if err := storeReplay(rec, rep, filepath.Join(cfg.work, "replay"), ops); err != nil {
		return nil, err
	}
	return rep, rec.write(cfg.spans)
}

// traceServeWorkload is serve-mixed's traced run: the server layer from
// the measured run, the pinned requests compiled once untraced and twice
// traced, the layer replay over them, and the request stream's
// Get/Put replayed against a copy of the pre-populated store.
func traceServeWorkload(cfg config, fx *serveFixture, sr *serveRun) (*report, error) {
	rep := newReport()
	rep.attempted = len(sr.answers) + len(fx.pinned)
	for _, e := range sr.errs {
		rep.fail(e)
	}
	serverMetrics(rep, sr.answers, sr.hits)

	var reqs []request
	untraced := map[string]string{}
	var busy time.Duration
	for i := range fx.pinned {
		o := compileOne(context.Background(), fx.pinned[i].r, facc.Options{})
		busy += o.dur
		reqs = append(reqs, o.r)
		untraced[o.r.req.Digest()] = o.key()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	tracedPerS := tracedPasses(rep, reqs, untraced, rng)
	rep.set("trace.overhead_frac", "fraction", 1-tracedPerS*busy.Seconds()/float64(len(reqs)))

	rec := newRecorder()
	layerReplay(rec, rep, fx.pinned)

	var ops []storeOp
	for _, a := range sr.answers {
		op := storeOp{key: a.r.req.Digest()}
		if d := sr.direct[op.key]; a.r.novel && d.adapter != "" {
			op.entry = &store.Entry{Target: a.r.req.Target, Function: d.function, Sig: d.sig, AdapterC: d.adapter}
		}
		ops = append(ops, op)
	}
	dir := filepath.Join(cfg.work, "replay")
	if err := copyDir(fx.template, dir); err != nil {
		return nil, err
	}
	if err := storeReplay(rec, rep, dir, ops); err != nil {
		return nil, err
	}
	return rep, rec.write(cfg.spans)
}
