package interp

// Fuzz target for the interpreter. Synthesis runs the machine over
// millions of candidate executions with adversarial bindings, so the
// contract under fuzzing is: any checked program, called with arbitrary
// scalar arguments and small arrays for pointer parameters, either
// finishes or returns a fault (out-of-bounds, fuel, depth, bad call) —
// never a Go panic — and the fuel budget bounds the work actually done.

import (
	"math/rand"
	"testing"

	"facc/internal/minic"
)

var interpSeedPrograms = []string{
	`int sum(int* a, int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }
    return s;
}`,
	`typedef struct { float re; float im; } cpx;
void scale(cpx* x, int n, float k) {
    for (int i = 0; i < n; i = i + 1) { x[i].re = x[i].re * k; x[i].im = x[i].im * k; }
}`,
	`int spin(int n) { while (n > 0) { n = n + 1; } return n; }`,
	`int rec(int n) { return rec(n + 1); }`,
	`double wave(double t) { return sin(t) * cos(t) + sqrt(t * t); }`,
	`int idx(int* p, int i) { return p[i]; }`,
	`long mix(long a, long b) { return (a << 3) ^ (b >> 1) | (a % (b + 1)); }`,
	// Slot storage: an addressed local keeps its own bounds-checked
	// Alloc, every other scalar local lives in its frame's cells.
	`int addr(int i) { int x = i; int* p = &x; *p = *p + 1; return p[i & 1] + x; }`,
	`int shadow(int x) {
    int y = x;
    { int x = y * 2; y = y + x; { int x = 3; y = y * x; } y = y - x; }
    return y + x;
}`,
	`double redecl(int n) {
    double s = 0;
    for (int i = 0; i < n; i++) { int k; double d; s = s + k + d; k = i; d = 0.5; }
    return s;
}`,
	`int rec2(int n) { int here = n; if (n > 0) { int below = rec2(n - 1); here = here + below; } return here; }`,
	`int tally(int n) { static int total = 0; static int hist[4]; total = total + n; hist[n & 3]++; return total + hist[n & 3]; }`,
	`typedef struct { double re; double im; } cx;
double mag2(cx* v, int n) {
    double s = 0;
    for (int i = 0; i < n; i++) { cx t = v[i & 7]; cx u; u = t; u.im = -t.im; s = s + u.re * t.re - u.im * t.im; }
    return s;
}`,
}

const fuzzFuel = 50_000

// fuzzArgs builds a best-effort argument list for fn: scalars from rng,
// small arrays for pointer parameters. Returns false for signatures the
// driver cannot populate (e.g. pointer-to-pointer).
func fuzzArgs(m *Machine, fn *minic.FuncDecl, rng *rand.Rand) ([]Value, bool) {
	var args []Value
	for _, prm := range fn.Params {
		pt := prm.Type.Decay()
		switch {
		case pt.Kind == minic.TPointer:
			elem := pt.Elem
			if elem.Kind == minic.TPointer || elem.Kind == minic.TVoid {
				return nil, false
			}
			arr, err := m.NewArray(prm.Name, elem, 8)
			if err != nil {
				return nil, false
			}
			args = append(args, arr)
		case pt.Kind == minic.TInt || pt.Kind == minic.TLong:
			// Small magnitudes keep loops plausible; the fuel budget
			// covers the rest.
			args = append(args, IntValue(rng.Int63n(37)-4))
		case pt.Kind == minic.TFloat || pt.Kind == minic.TDouble:
			args = append(args, FloatValue(rng.NormFloat64()*8, pt))
		case pt.Kind == minic.TComplexFloat || pt.Kind == minic.TComplexDouble:
			args = append(args, ComplexValue(complex(rng.NormFloat64(), rng.NormFloat64()), pt))
		default:
			return nil, false
		}
	}
	return args, true
}

// FuzzInterp runs every function of a checked fuzzer-mutated program on
// seeded arguments under a small fuel budget.
func FuzzInterp(f *testing.F) {
	for _, s := range interpSeedPrograms {
		f.Add(s, int64(1))
	}
	f.Add(interpSeedPrograms[0], int64(-77))
	f.Fuzz(func(t *testing.T, src string, argSeed int64) {
		file, err := minic.ParseAndCheck("fuzz.c", src)
		if err != nil {
			return // frontend rejection is FuzzParse's domain
		}
		rng := rand.New(rand.NewSource(argSeed))
		for _, fn := range file.Funcs {
			m, err := NewMachine(file)
			if err != nil {
				return
			}
			m.MaxSteps = fuzzFuel
			m.MaxDepth = 64
			args, ok := fuzzArgs(m, fn, rng)
			if !ok {
				continue
			}
			// Faults (bounds, fuel, depth, div-by-zero …) are expected;
			// a Go panic fails the fuzz run on its own.
			_, _ = m.Call(fn, args)
			if m.Counters.Steps > fuzzFuel+1000 {
				t.Fatalf("%s: fuel not respected: %d steps on a %d budget",
					fn.Name, m.Counters.Steps, fuzzFuel)
			}
		}
	})
}

// TestInterpSeedsCheck keeps the seed corpus meaningful: a seed the
// frontend rejects would return early and exercise nothing.
func TestInterpSeedsCheck(t *testing.T) {
	for i, src := range interpSeedPrograms {
		if _, err := minic.ParseAndCheck("seed.c", src); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}
