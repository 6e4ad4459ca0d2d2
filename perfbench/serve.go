package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"facc"
	"facc/internal/faultinject"
	"facc/internal/obs"
	"facc/internal/server"
	"facc/internal/store"
)

const (
	// fillerEntries pre-populates the store to the size the store
	// rewrite is judged at.
	fillerEntries = 10000
	// blockLen requests form a block with exactly one novel request, so
	// every run's mix is 90% repeats whatever its length.
	blockLen = 10
	// serveClients closed-loop clients: one per core of the 2-core host
	// the benchmark is sized for, so it measures the server, not the
	// scheduler.
	serveClients = 2
	// serveSetupRepeats is how many times a run opens the store.
	serveSetupRepeats = 3
)

// faccdOptions is the standing compile configuration cmd/faccd builds by
// default: 10 tests, -j = GOMAXPROCS, hardened accelerator calls.
func faccdOptions() facc.Options { return facc.Options{NumTests: 10, Harden: true} }

// directOptions compiles the checker's ground truth: faccd's options on
// one worker, so two direct compiles share the cores without speculative
// waste. Outputs are identical for every Workers value, and the
// byte-identical comparison with served answers would expose a compile
// that is not.
func directOptions() facc.Options {
	o := faccdOptions()
	o.Workers = 1
	return o
}

// session is an in-process faccd as cmd/faccd wires it by default (store,
// journal, ledger and kill table, no cex pool) serving a loopback
// listener.
type session struct {
	st     *store.Store
	tr     *obs.Tracer
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

// startSession opens the store in dir and serves until /readyz is 200.
func startSession(dir string) (*session, error) {
	tr := obs.New()
	st, err := store.Open(dir, tr.Metrics())
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Store:   st,
		Tracer:  tr,
		Journal: obs.NewJournal(),
		Ledger:  obs.NewLedger(),
		Kills:   obs.NewKillTable(),
		Options: faccdOptions(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		st.Close()
		return nil, err
	}
	s := &session{st: st, tr: tr, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}}
	go func() { s.served <- s.hs.Serve(ln) }()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	return nil, errors.Join(fmt.Errorf("faccd not ready after a minute"), s.stop())
}

// stop drains the server, closes the listener and the store, and waits
// for the serving goroutine.
func (s *session) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := []error{s.srv.Drain(ctx), s.hs.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	s.client.CloseIdleConnections()
	errs = append(errs, s.st.Close())
	return errors.Join(errs...)
}

// jobView is the part of faccd's job JSON the benchmark checks.
type jobView struct {
	State      string  `json:"state"`
	Function   string  `json:"function"`
	Sig        string  `json:"sig"`
	AdapterC   string  `json:"adapter_c"`
	FailReason string  `json:"fail_reason"`
	Error      string  `json:"error"`
	Cached     bool    `json:"cached"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// served is one answered request.
type served struct {
	i      int64 // position in the request stream
	r      request
	status int
	lat    time.Duration
	job    jobView
	err    error
}

// post sends one POST /compile?wait=1 and times it client-side.
func (s *session) post(r request) served {
	body, err := json.Marshal(r.req)
	if err != nil {
		return served{r: r, err: err}
	}
	start := time.Now()
	resp, err := s.client.Post(s.url+"/compile?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return served{r: r, err: err, lat: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := served{r: r, status: resp.StatusCode, lat: time.Since(start), err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		out.err = json.Unmarshal(data, &out.job)
	}
	return out
}

// sequence is serve-mixed's seeded request stream. Request i depends only
// on the seed and i, never on which client sends it. Each block of
// blockLen holds one novel request at a seeded position, renamed with a
// seeded tag. Repeats walk seeded permutations of the pinned requests.
// The novel variants' bases walk permutations that do not depend on the
// seed: compile costs differ by 20× between programs and a run holds only
// a few cycles of 54, so a seeded choice of bases would make the run's
// cost depend on its seed.
type sequence struct {
	seed  int64
	bases []request

	mu    sync.Mutex
	perms map[[2]int64][]int
}

func (s *sequence) perm(stream, cycle int64) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := [2]int64{stream, cycle}
	if p, ok := s.perms[k]; ok {
		return p
	}
	seed := stream*104729 + cycle
	if stream == 0 {
		seed += s.seed * 7919
	}
	p := rand.New(rand.NewSource(seed)).Perm(len(s.bases))
	s.perms[k] = p
	return p
}

func (s *sequence) at(i int64) (request, error) {
	block, pos := i/blockLen, i%blockLen
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + block))
	novelPos := rng.Int63n(blockLen)
	n := int64(len(s.bases))
	if pos == novelPos {
		base := s.bases[s.perm(1, block/n)[block%n]]
		return novelVariant(base, fmt.Sprintf("v%x", rng.Uint32()<<8|uint32(block&0xff)))
	}
	q := block*(blockLen-1) + pos
	if pos > novelPos {
		q--
	}
	return s.bases[s.perm(0, q/n)[q%n]], nil
}

// runClients drives the session with serveClients closed-loop clients
// until seconds have passed, and returns the answers in sequence order
// plus the wall time.
func runClients(s *session, seq *sequence, seconds float64) ([]served, time.Duration, error) {
	var next atomic.Int64
	results := make([][]served, serveClients)
	errs := make([]error, serveClients)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				r, err := seq.at(i)
				if err != nil {
					errs[c] = err
					return
				}
				a := s.post(r)
				a.i = i
				results[c] = append(results[c], a)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []served
	for _, rs := range results {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return all, wall, errors.Join(errs...)
}

// buildTemplate writes the pre-populated store: fillerEntries entries
// shaped like real adapters, then the pinned requests' adapters exactly
// as faccd would persist them. The fill skips fsync: it is not measured,
// and the store it leaves is the one a clean shutdown leaves.
func buildTemplate(dir string, pinned []outcome) error {
	st, err := store.OpenOptions(dir, nil, store.Options{VFS: noSyncVFS{faultinject.OSVFS{}}})
	if err != nil {
		return err
	}
	var adapters []string
	for _, o := range pinned {
		if o.adapter != "" {
			adapters = append(adapters, o.adapter)
		}
	}
	if len(adapters) == 0 {
		st.Close()
		return fmt.Errorf("no pinned adapter to shape the filler entries")
	}
	targets := facc.Targets()
	for i := 0; i < fillerEntries; i++ {
		key := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint("filler", i))))
		err := st.Put(key, store.Entry{
			Target:   targets[i%len(targets)],
			Function: fmt.Sprintf("filler_%d", i),
			Sig:      fmt.Sprintf("filler-sig-%d", i%97),
			AdapterC: fmt.Sprintf("/* filler %d */\n%s", i, adapters[i%len(adapters)]),
			Trace:    fmt.Sprintf("%032x", i),
		})
		if err != nil {
			st.Close()
			return err
		}
	}
	for _, o := range pinned {
		if o.adapter == "" {
			continue
		}
		err := st.Put(o.r.req.Digest(), store.Entry{Target: o.r.req.Target,
			Function: o.function, Sig: o.sig, AdapterC: o.adapter, Trace: obs.NewTraceID()})
		if err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

type noSyncVFS struct{ faultinject.VFS }

func (v noSyncVFS) Open(path string) (faultinject.File, error) {
	f, err := v.VFS.Open(path)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ faultinject.File }

func (noSyncFile) Sync() error { return nil }

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// serveFixture is what serve-mixed builds before its first request: the
// pinned requests compiled directly (the hits' ground truth) and the
// pre-populated store template.
type serveFixture struct {
	pinned   []outcome
	template string
	seq      *sequence
}

func newServeFixture(cfg config) (*serveFixture, error) {
	reqs := pinnedRequests(true)
	pinned := make([]outcome, len(reqs))
	parallel(len(reqs), func(i int) { pinned[i] = compileOne(context.Background(), reqs[i], directOptions()) })
	template := filepath.Join(cfg.work, "template")
	if err := buildTemplate(template, pinned); err != nil {
		return nil, fmt.Errorf("pre-populating the store: %w", err)
	}
	return &serveFixture{pinned: pinned, template: template,
		seq: &sequence{seed: cfg.seed, bases: reqs, perms: map[[2]int64][]int{}}}, nil
}

// openTimed copies the template and starts a session on the copy
// serveSetupRepeats times, returning the last session and the median
// time from store.Open to /readyz 200.
func (fx *serveFixture) openTimed(work string) (*session, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("store-%d", i))
		if err := copyDir(fx.template, dir); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		s, err := startSession(dir)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == serveSetupRepeats-1 {
			return s, median(setups), nil
		}
		if err := s.stop(); err != nil {
			return nil, 0, err
		}
		os.RemoveAll(dir)
	}
}

// serveRun is a finished, checked serve-mixed measurement.
type serveRun struct {
	answers  []served
	wall     time.Duration
	direct   map[string]*outcome // direct compile per request digest
	hits     int64               // serve.cache_hits
	errs     []error
	speedups []float64
	setupS   float64
	rss      float64
}

// measureServe runs the timed phase and then checks every answer: each
// must be byte-identical to a direct compile of the same request, whose
// adapter must pass the checker's replay.
func measureServe(cfg config, fx *serveFixture, c *checker) (*serveRun, error) {
	s, setupS, err := fx.openTimed(cfg.work)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS()
	answers, wall, cerr := runClients(s, fx.seq, cfg.seconds)
	rss.mark()
	sr := &serveRun{answers: answers, wall: wall, setupS: setupS, rss: rss.close()[0],
		direct: map[string]*outcome{}}
	sr.hits = s.tr.Metrics().Counter("serve.cache_hits").Value()
	if err := errors.Join(cerr, s.stop()); err != nil {
		return nil, err
	}

	for i := range fx.pinned {
		o := &fx.pinned[i]
		sr.direct[o.r.req.Digest()] = o
	}
	var novel []*outcome
	for _, a := range answers {
		id := a.r.req.Digest()
		if _, ok := sr.direct[id]; !ok {
			o := &outcome{r: a.r}
			sr.direct[id] = o
			novel = append(novel, o)
		}
	}
	parallel(len(novel), func(i int) { *novel[i] = compileOne(context.Background(), novel[i].r, directOptions()) })
	pinned := make([]*outcome, len(fx.pinned))
	for i := range fx.pinned {
		pinned[i] = &fx.pinned[i]
	}
	c.warm(pinned)
	parallel(len(pinned), func(i int) { c.check(pinned[i]) })
	parallel(len(novel), func(i int) { checkNovel(c, novel[i], sr.direct) })
	for i := range fx.pinned {
		o := &fx.pinned[i]
		ac, err := c.check(o)
		if err != nil {
			sr.errs = append(sr.errs, fmt.Errorf("direct compile: %w", err))
		} else {
			sr.speedups = append(sr.speedups, ac.speedup)
		}
	}
	for _, a := range answers {
		if err := judgeAnswer(c, a, sr.direct[a.r.req.Digest()]); err != nil {
			sr.errs = append(sr.errs, err)
		}
	}
	return sr, nil
}

// judgeAnswer checks one answer against the direct compile of the same
// request: a repeat must come from the cache, a novel request must not,
// and the adapter must be byte-identical and pass the replay.
func judgeAnswer(c *checker, a served, d *outcome) error {
	name := fmt.Sprintf("%s/%s", a.r.b.Name, a.r.req.Target)
	switch {
	case a.err != nil:
		return fmt.Errorf("%s: %w", name, a.err)
	case a.status != http.StatusOK:
		return fmt.Errorf("%s: HTTP %d", name, a.status)
	case a.job.State != string(server.Done):
		return fmt.Errorf("%s: job %s (%s%s)", name, a.job.State, a.job.FailReason, a.job.Error)
	case a.job.Cached == a.r.novel:
		return fmt.Errorf("%s: cached=%v for a novel=%v request", name, a.job.Cached, a.r.novel)
	case a.job.AdapterC != d.adapter || a.job.Function != d.function || a.job.Sig != d.sig:
		return fmt.Errorf("%s: served adapter differs from a direct compile", name)
	}
	return checkNovel(c, d, nil)
}

// checkNovel checks a direct compile. A novel request's integrated unit
// that differs from its base's unit only by the rename is alpha-equivalent
// to it and shares the base's verdict; any other unit is replayed in
// full. direct maps request digests to direct compiles; nil means the
// verdicts are already memoized.
func checkNovel(c *checker, o *outcome, direct map[string]*outcome) error {
	if o.r.novel && o.adapter != "" && direct != nil {
		base := direct[o.r.base.req.Digest()]
		if base != nil && base.unit != "" && strings.ReplaceAll(o.unit, "_"+o.r.tag, "") == base.unit {
			c.alias(o, base)
		}
	}
	_, err := c.check(o)
	return err
}

// runServeWorkload is serve-mixed.
func runServeWorkload(cfg config) (*report, error) {
	c := newChecker(cfg.seed, cfg.refDir)
	fx, err := newServeFixture(cfg)
	if err != nil {
		return nil, err
	}
	sr, err := measureServe(cfg, fx, c)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceServeWorkload(cfg, fx, sr)
	}
	rep := newReport()
	// The direct compiles that fill the store are checked operations too.
	rep.attempted = len(sr.answers) + len(fx.pinned)
	for _, e := range sr.errs {
		rep.fail(e)
	}
	var hit, miss, jobMS []float64
	for _, a := range sr.answers {
		if a.r.novel {
			miss = append(miss, ms(a.lat))
			jobMS = append(jobMS, a.job.ElapsedMS)
		} else {
			hit = append(hit, ms(a.lat))
		}
	}
	wall := sr.wall.Seconds()
	rep.set("serve_rps", "1/s", float64(len(sr.answers))/wall)
	rep.set("hit_ms_p50", "ms", median(hit))
	rep.set("miss_ms_p50", "ms", median(miss))
	rep.set("miss_ms_p90", "ms", quantile(miss, 0.9))
	rep.set("compiles_per_s", "1/s", float64(len(miss))/wall)
	rep.set("compile_ms_p50", "ms", median(jobMS))
	rep.set("compile_ms_p90", "ms", quantile(jobMS, 0.9))
	rep.setExact("speedup_geomean", "x", geomean(sr.speedups))
	rep.exact["adapters"] = float64(len(sr.speedups))
	rep.set("ok_frac", "fraction", 1-float64(rep.failed)/float64(rep.attempted))
	rep.set("peak_rss_mb", "MB", sr.rss)
	rep.set("setup_s", "s", sr.setupS)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mixed: %d requests (%d hits, %d novel) in %.1fs; %d samples beyond miss p90\n",
		len(sr.answers), len(hit), len(miss), wall, len(miss)/10)
	return rep, nil
}
