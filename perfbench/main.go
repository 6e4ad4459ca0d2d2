// Command perfbench is the repository's end-to-end benchmark. It drives
// the compiler through its public entry points (facc.CompileRequestContext
// and faccd's server.Server on a loopback listener), checks every output
// outside the timed region, and prints one JSON result line.
//
//	perfbench --workload compile-pinned|compile-whole|serve-mixed \
//	          --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics. perfbench/run.sh builds and
// runs it from the repository root. METRICS.md maps each metric to the
// layer and workload it measures.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics and failures.
type report struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	exact             map[string]float64 // values that must repeat bit for bit
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, exact: map[string]float64{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// setExact reports a value the exactness guard holds across runs.
func (r *report) setExact(name, unit string, v float64) {
	r.set(name, unit, v)
	r.exact[name] = v
}

func (r *report) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory inside the checkout
	spans    string // where the traced run writes its spans
	refDir   string // reference runs kept across runs of this source tree
	exact    string // exactness records of this source tree
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "compile-pinned, compile-whole or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	cfg.work = filepath.Join(build, "perfbench-work", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	cfg.spans = filepath.Join(build, "perfbench-spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	tree, err := sourceHash(".")
	if err != nil {
		fatal(err)
	}
	cfg.refDir = filepath.Join(build, "perfbench-ref", tree[:16])
	cfg.exact = filepath.Join(build, "perfbench-exact", tree[:16])
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	rep, err := run(cfg)
	os.RemoveAll(cfg.work)
	if err != nil {
		fatal(err)
	}
	if err := guardExact(cfg, rep.exact); err != nil {
		rep.fail(err)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-28s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	for n, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is %v", n, m.Value))
		}
	}
	out, err := json.Marshal(result{Correct: rep.failed == 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: rep.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(cfg config) (*report, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	switch cfg.workload {
	case "compile-pinned":
		return runCompileWorkload(cfg, func() []request { return pinnedRequests(false) })
	case "compile-whole":
		return runCompileWorkload(cfg, wholeRequests)
	case "serve-mixed":
		return runServeWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown --workload %q (compile-pinned, compile-whole, serve-mixed)", cfg.workload)
}

// rssMB reads the process's resident set (VmRSS) in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// rssPeaks samples the resident set every few milliseconds and keeps the
// peak of each window the caller closes with mark. A Go heap's peak
// depends on where collections fall, so a workload reports the median of
// several windows' peaks rather than one process-lifetime maximum.
type rssPeaks struct {
	mu    sync.Mutex
	cur   float64
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

func sampleRSS() *rssPeaks {
	p := &rssPeaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			p.observe()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *rssPeaks) observe() {
	v := rssMB()
	p.mu.Lock()
	p.cur = math.Max(p.cur, v)
	p.mu.Unlock()
}

// mark closes the current window.
func (p *rssPeaks) mark() {
	p.observe()
	p.mu.Lock()
	p.peaks = append(p.peaks, p.cur)
	p.cur = 0
	p.mu.Unlock()
}

// close stops sampling and returns the windows' peaks.
func (p *rssPeaks) close() []float64 {
	close(p.stop)
	<-p.done
	return p.peaks
}

// guardExact holds the run's exact values to the first run recorded for
// the same source tree and workload: machine-independent counts that
// drift between runs of one program are a correctness bug, not noise.
func guardExact(cfg config, vals map[string]float64) error {
	if len(vals) == 0 {
		return nil
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	path := filepath.Join(cfg.exact, fmt.Sprintf("%s-%s.json", cfg.workload, mode))
	if data, err := os.ReadFile(path); err == nil {
		var want map[string]float64
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("exactness record %s: %w", path, err)
		}
		var drift []string
		for k, v := range vals {
			if w, ok := want[k]; ok && w != v {
				drift = append(drift, fmt.Sprintf("%s = %v, earlier run %v", k, v, w))
			}
		}
		if len(drift) > 0 {
			sort.Strings(drift)
			return fmt.Errorf("exact values drifted from %s: %s", path, strings.Join(drift, "; "))
		}
		return nil
	}
	if err := os.MkdirAll(cfg.exact, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(vals)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sourceHash digests the Go and C sources of the tree at root, so the
// exactness record of one program version never judges another.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(p); ext != ".go" && ext != ".c" && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil)), err
}
