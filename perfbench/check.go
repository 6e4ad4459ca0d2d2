package main

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"facc/internal/accel"
	"facc/internal/bench"
	"facc/internal/fft"
	"facc/internal/interp"
)

// deviceRecorder is appended to every checked unit: it records the length
// of each offload so the cost model can charge Spec.Time per call and the
// checker can prove the adapter path actually ran.
const deviceRecorder = `
int pb_calls;
int pb_lens[256];
void pb_record(int n) {
    if (pb_calls < 256) pb_lens[pb_calls] = n;
    pb_calls = pb_calls + 1;
}
int pb_count(void) { return pb_calls; }
int pb_len(int i) { return pb_lens[i]; }
`

// deviceTransform is a MiniC model of the accelerators' transform:
// iterative radix-2 for powers of two, a direct DFT otherwise, computed
// in double and delivered in the devices' single-precision format.
// sign is the exponent sign (-1 forward), scale multiplies the output.
const deviceTransform = `
void pb_transform(float_complex* in, float_complex* out, int n, double sign, double scale) {
    double re[n];
    double im[n];
    int pow2 = n > 0 && (n & (n - 1)) == 0;
    if (pow2) {
        int j = 0;
        for (int i = 0; i < n; i++) {
            re[j] = (double)in[i].re;
            im[j] = (double)in[i].im;
            int bit = n >> 1;
            while (bit > 0 && (j & bit)) {
                j = j ^ bit;
                bit = bit >> 1;
            }
            j = j | bit;
        }
        for (int len = 2; len <= n; len = len * 2) {
            double ang = sign * 2.0 * M_PI / (double)len;
            double stepr = cos(ang);
            double stepi = sin(ang);
            double wr = 1.0;
            double wi = 0.0;
            for (int k = 0; k < len / 2; k++) {
                for (int s = 0; s < n; s += len) {
                    int a = s + k;
                    int b = a + len / 2;
                    double tr = re[b] * wr - im[b] * wi;
                    double ti = re[b] * wi + im[b] * wr;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] = re[a] + tr;
                    im[a] = im[a] + ti;
                }
                double t = wr * stepr - wi * stepi;
                wi = wr * stepi + wi * stepr;
                wr = t;
            }
        }
    } else {
        for (int k = 0; k < n; k++) {
            double sr = 0.0;
            double si = 0.0;
            for (int t = 0; t < n; t++) {
                double a = sign * 2.0 * M_PI * (double)t * (double)k / (double)n;
                sr += (double)in[t].re * cos(a) - (double)in[t].im * sin(a);
                si += (double)in[t].re * sin(a) + (double)in[t].im * cos(a);
            }
            re[k] = sr;
            im[k] = si;
        }
    }
    for (int k = 0; k < n; k++) {
        out[k].re = (float)(re[k] * scale);
        out[k].im = (float)(im[k] * scale);
    }
}
`

// deviceModel gives a target's API call a body.
type deviceModel struct {
	// run computes the transform with the device's normalization and
	// direction conventions.
	run string
	// cost only records the call, so a run through it counts host-side
	// work alone.
	cost string
}

var deviceModels = map[string]deviceModel{
	"ffta": {
		`void accel_cfft(float_complex* input, float_complex* output, int len) {
    pb_record(len);
    pb_transform(input, output, len, -1.0, 1.0 / (double)len);
}`,
		`void accel_cfft(float_complex* input, float_complex* output, int len) { pb_record(len); }`,
	},
	"powerquad": {
		`void pq_cfft(float_complex* input, float_complex* output, int length) {
    pb_record(length);
    pb_transform(input, output, length, -1.0, 1.0);
}`,
		`void pq_cfft(float_complex* input, float_complex* output, int length) { pb_record(length); }`,
	},
	"fftw": {
		`void fftw_call(float_complex* acc_input, float_complex* acc_output, int length, int direction, int flags) {
    pb_record(length);
    pb_transform(acc_input, acc_output, length, (double)direction, 1.0);
}`,
		`void fftw_call(float_complex* acc_input, float_complex* acc_output, int length, int direction, int flags) { pb_record(length); }`,
	},
}

// tolerance is the comparison bound relative to the output's largest
// magnitude: synth's own default, since the devices compute in single
// precision.
const tolerance = 2e-3

// adapterCheck is what the checker learns about one accepted compile.
type adapterCheck struct {
	speedup  float64 // modelled original time / integrated time at PerfSize
	offloads int     // device calls over both checked lengths
}

// checker replays adapters against the unmodified corpus program and
// internal/fft. It memoizes reference runs and verdicts, so a workload
// that repeats a compile pays its check once. Safe for concurrent use.
type checker struct {
	seed int64
	// refDir, when set, keeps PerfSize reference runs across runs of one
	// source tree. Their input is fixed, so they are a pure function of
	// the tree, and a quadratic DFT program takes seconds to interpret
	// at PerfSize.
	refDir string

	mu   sync.Mutex
	memo map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

func newChecker(seed int64, refDir string) *checker {
	return &checker{seed: seed, refDir: refDir, memo: map[string]*memoEntry{}}
}

// inputSeed picks the check input: fixed at PerfSize, where the speedup
// model must repeat exactly and the reference run is kept, and the
// workload seed at the smaller length.
func (c *checker) inputSeed(b *bench.Benchmark, n int) int64 {
	if n == b.PerfSize {
		return 0
	}
	return c.seed
}

// do computes f once per key, however many goroutines ask.
func (c *checker) do(key string, f func() (any, error)) (any, error) {
	c.mu.Lock()
	e := c.memo[key]
	if e == nil {
		e = &memoEntry{}
		c.memo[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = f() })
	return e.val, e.err
}

// checkRejection accepts a "no adapter" answer only for a program the
// corpus marks unsupported, with the Fig. 8 category it records.
func checkRejection(b *bench.Benchmark, reason string) error {
	if b.IsSupported() {
		return fmt.Errorf("%s: supported program rejected (%s)", b.Name, reason)
	}
	if reason != string(b.Failure) {
		return fmt.Errorf("%s: rejected as %q, ground truth is %q", b.Name, reason, b.Failure)
	}
	return nil
}

// checkAdapter replays an accepted compile. unit is the integrated
// translation unit (call sites rewritten to the adapter), function the
// replaced function. The unit is driven through the corpus driver at
// PerfSize and at the smallest profiled length; its output must match
// both the unmodified program and internal/fft. An adapter whose device
// path the entry never reaches at those lengths is still correct (it
// falls back to the original code); it is counted in offloads, and its
// modelled speedup shows the missing acceleration.
func (c *checker) checkAdapter(b *bench.Benchmark, target, function, unit string) (adapterCheck, error) {
	v, err := c.do(adapterKey(b.Name, target, function, unit), func() (any, error) { return c.replay(b, target, function, unit) })
	ac, _ := v.(adapterCheck)
	return ac, err
}

// alias makes o share base's verdict: o's unit is base's unit with its
// identifiers renamed.
func (c *checker) alias(o, base *outcome) {
	ac, err := c.check(base)
	c.do(adapterKey(o.r.b.Name, o.r.req.Target, o.function, o.unit), func() (any, error) { return ac, err })
}

func adapterKey(bench, target, function, unit string) string {
	return fmt.Sprintf("adapter|%s|%s|%s|%x", bench, target, function, sha256.Sum256([]byte(unit)))
}

func (c *checker) replay(b *bench.Benchmark, target, function, unit string) (adapterCheck, error) {
	var ac adapterCheck
	if !b.IsSupported() || len(b.Driver) == 0 {
		return ac, fmt.Errorf("%s: adapter for a program the corpus marks unsupported", b.Name)
	}
	model, ok := deviceModels[target]
	if !ok {
		return ac, fmt.Errorf("no device model for target %q", target)
	}
	drive := b.Entry
	if function == b.Entry {
		drive = b.Entry + "_accel"
	}
	for _, n := range checkLengths(b) {
		r, err := bench.NewRunnerUnit(b, b.File+".integrated", unit+deviceRecorder+deviceTransform+model.run, drive)
		if err != nil {
			return ac, fmt.Errorf("%s/%s: %w", b.Name, target, err)
		}
		in := signal(c.inputSeed(b, n), b, n)
		r.Machine.MaxSteps = 2_000_000_000
		got, err := r.Run(in)
		if err != nil {
			return ac, fmt.Errorf("%s/%s n=%d: integrated unit: %w", b.Name, target, n, err)
		}
		calls, err := r.Machine.CallNamed("pb_count", nil)
		if err != nil {
			return ac, err
		}
		ac.offloads += int(calls.Int())
		ref, err := c.reference(b, n)
		if err != nil {
			return ac, err
		}
		if err := compare(got, ref.Out); err != nil {
			return ac, fmt.Errorf("%s/%s n=%d: differs from the original program: %w", b.Name, target, n, err)
		}
		if err := compare(got, spectrum(b, in)); err != nil {
			return ac, fmt.Errorf("%s/%s n=%d: differs from internal/fft: %w", b.Name, target, n, err)
		}
	}
	sp, err := c.speedup(b, target, drive, unit+deviceRecorder+model.cost)
	if err != nil {
		return ac, err
	}
	ac.speedup = sp
	return ac, nil
}

// warm computes the reference runs every accepted outcome will need, all
// at once: a few corpus programs are quadratic DFTs that take seconds at
// PerfSize, and running every reference concurrently keeps one of them
// from serialising the checks queued behind it.
func (c *checker) warm(outs []*outcome) {
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for _, o := range outs {
		b := o.r.b
		if o.adapter == "" || !b.IsSupported() || len(b.Driver) == 0 {
			continue
		}
		for _, n := range checkLengths(b) {
			k := fmt.Sprint(b.Name, n)
			if seen[k] {
				continue
			}
			seen[k] = true
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				c.reference(b, n)
			}(n)
		}
	}
	wg.Wait()
}

// checkLengths is PerfSize and the smallest profiled length the program
// supports.
func checkLengths(b *bench.Benchmark) []int {
	small := b.PerfSize
	for _, n := range b.ProfileValues["n"] {
		if int(n) < small && b.SupportsSize(int(n)) {
			small = int(n)
		}
	}
	if small == b.PerfSize {
		return []int{b.PerfSize}
	}
	return []int{b.PerfSize, small}
}

// speedup models the integrated unit against the original at PerfSize:
// both sides' interpreter counters priced on the target's host, plus
// Spec.Time per offload. The corpus programs' op counts do not depend on
// the input values, so the figure repeats exactly across seeds; the
// exactness guard fails the run if that ever stops being true.
func (c *checker) speedup(b *bench.Benchmark, target, drive, costUnit string) (float64, error) {
	spec, err := accel.SpecByName(target)
	if err != nil {
		return 0, err
	}
	host := accel.HostFor(target)
	ref, err := c.reference(b, b.PerfSize)
	if err != nil {
		return 0, err
	}
	r, err := bench.NewRunnerUnit(b, b.File+".cost", costUnit, drive)
	if err != nil {
		return 0, err
	}
	counters, err := r.MeasureCounters(signal(c.inputSeed(b, b.PerfSize), b, b.PerfSize))
	if err != nil {
		return 0, fmt.Errorf("%s/%s: cost run: %w", b.Name, target, err)
	}
	calls, err := r.Machine.CallNamed("pb_count", nil)
	if err != nil {
		return 0, err
	}
	t := host.Time(counters)
	for i := int64(0); i < calls.Int() && i < 256; i++ {
		n, err := r.Machine.CallNamed("pb_len", []interp.Value{interp.IntValue(i)})
		if err != nil {
			return 0, err
		}
		t += spec.Time(int(n.Int()))
	}
	return host.Time(ref.Counters) / t, nil
}

// refRun is the unmodified program's output and op counts on the check
// input of one length.
type refRun struct {
	Out      []complex128
	Counters interp.Counters
}

func (c *checker) reference(b *bench.Benchmark, n int) (refRun, error) {
	v, err := c.do(fmt.Sprintf("ref|%s|%d", b.Name, n), func() (any, error) {
		var path string
		if c.refDir != "" && n == b.PerfSize {
			path = filepath.Join(c.refDir, fmt.Sprintf("%s-%d.gob", b.Name, n))
			if f, err := os.Open(path); err == nil {
				var ref refRun
				err := gob.NewDecoder(f).Decode(&ref)
				f.Close()
				if err == nil {
					return ref, nil
				}
			}
		}
		r, err := bench.NewRunner(b)
		if err != nil {
			return nil, err
		}
		r.Machine.Reset()
		r.Machine.MaxSteps = 2_000_000_000
		out, err := r.Run(signal(c.inputSeed(b, n), b, n))
		if err != nil {
			return nil, fmt.Errorf("%s n=%d: original program: %w", b.Name, n, err)
		}
		ref := refRun{Out: out, Counters: r.Machine.Counters}
		if path != "" {
			if err := saveGob(path, ref); err != nil {
				return nil, err
			}
		}
		return ref, nil
	})
	ref, _ := v.(refRun)
	return ref, err
}

// saveGob writes v to path through a temporary file and a rename, so a
// concurrent reader never sees a partial file.
func saveGob(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".ref-*")
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// spectrum is the program's documented contract computed by internal/fft:
// the forward DFT, scaled by 1/N for normalized programs and bit-reversed
// for programs whose contract is a bit-reversed spectrum.
func spectrum(b *bench.Benchmark, in []complex128) []complex128 {
	out := fft.DFT(in, fft.Forward)
	if fft.IsPowerOfTwo(len(in)) {
		out = append([]complex128(nil), in...)
		_ = fft.Radix2(out, fft.Forward)
	}
	if b.Normalized {
		fft.Normalize(out)
	}
	if b.BitReversedOut {
		out = fft.BitReversedCopy(out)
	}
	return out
}

// signal is the seeded check input for one program and length.
func signal(seed int64, b *bench.Benchmark, n int) []complex128 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(b.ID)*4099 + int64(n)))
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return in
}

// compare bounds the element-wise error by tolerance × (1 + max |want|).
func compare(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	norm := 0.0
	for _, w := range want {
		norm = math.Max(norm, cmplx.Abs(w))
	}
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); !(d <= tolerance*(1+norm)) {
			return fmt.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
