package bench

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"facc/internal/interp"
	"facc/internal/minic"
)

var updateCounters = flag.Bool("update-counters", false,
	"rewrite testdata/counters.golden from the current interpreter")

// goldenN is the transform length every golden run uses.
const goldenN = 64

// goldenIntArg returns the value a golden run passes for a scalar
// parameter: the length for n, a 8x8 grid for the 2-D program, the
// element size project21 insists on, and 0 (forward, first kind) for
// every selector.
func goldenIntArg(name string) int64 {
	switch name {
	case "n":
		return goldenN
	case "rows", "cols":
		return 8
	case "nrows":
		return 2
	case "elem_size":
		return 16
	default:
		return 0
	}
}

// goldenElem resolves the element type a pointer parameter is driven
// with; void* buffers take the translation unit's first struct typedef
// (the erased element type of project21 and project22).
func goldenElem(f *minic.File, pt *minic.Type) *minic.Type {
	if pt.Elem.Kind != minic.TVoid {
		return pt.Elem
	}
	for _, td := range f.Typedefs {
		if td.Type.Kind == minic.TStruct {
			return td.Type
		}
	}
	return nil
}

// goldenFill writes a deterministic signal into every scalar cell of an
// array of count elements of elem.
func goldenFill(m *interp.Machine, arr interp.Value, elem *minic.Type, count int) error {
	vals := make([]float64, count*interp.FlatSize(elem))
	for i := range vals {
		vals[i] = float64((i*7)%13)/13 - 0.5
	}
	return m.SetFloatArray(arr, vals)
}

// goldenArgs builds the entry's arguments: every pointer parameter gets
// an array of alen elements filled with the golden signal, and a
// pointer-to-pointer parameter gets nrows such rows. It returns the
// arrays alongside so the run's output can be hashed.
func goldenArgs(r *Runner, alen int) ([]interp.Value, []interp.Value, error) {
	m := r.Machine
	var args, arrays []interp.Value
	for _, prm := range r.entry.Params {
		pt := prm.Type.Decay()
		switch {
		case pt.Kind == minic.TPointer && pt.Elem.Kind == minic.TPointer:
			rows := int(goldenIntArg("nrows"))
			outer, err := m.NewArray(prm.Name, pt.Elem, rows)
			if err != nil {
				return nil, nil, err
			}
			for i := 0; i < rows; i++ {
				row, err := m.NewArray(fmt.Sprintf("%s%d", prm.Name, i), pt.Elem.Elem, alen)
				if err != nil {
					return nil, nil, err
				}
				if err := goldenFill(m, row, pt.Elem.Elem, alen); err != nil {
					return nil, nil, err
				}
				slot := outer.Ptr()
				slot.Off += i
				if err := m.StoreScalar(slot, row, minic.Pos{}); err != nil {
					return nil, nil, err
				}
				arrays = append(arrays, row)
			}
			args = append(args, outer)
		case pt.Kind == minic.TPointer:
			elem := goldenElem(r.File, pt)
			if elem == nil {
				return nil, nil, fmt.Errorf("no element type for %s", prm.Name)
			}
			arr, err := m.NewArray(prm.Name, elem, alen)
			if err != nil {
				return nil, nil, err
			}
			if err := goldenFill(m, arr, elem, alen); err != nil {
				return nil, nil, err
			}
			args = append(args, arr)
			arrays = append(arrays, arr)
		case pt.IsInteger():
			args = append(args, interp.IntValue(goldenIntArg(prm.Name)))
		default:
			return nil, nil, fmt.Errorf("unsupported parameter %s %s", pt, prm.Name)
		}
	}
	return args, arrays, nil
}

// goldenHash digests the exact bits of every scalar cell of the arrays
// (pointer cells excluded).
func goldenHash(m *interp.Machine, arrays []interp.Value) (uint64, error) {
	h := fnv.New64a()
	for _, arr := range arrays {
		p := arr.Ptr()
		for {
			v, err := m.LoadScalar(p, minic.Pos{})
			if interp.FaultOf(err) == interp.FaultOutOfBounds {
				break
			}
			if err != nil {
				return 0, err
			}
			if v.K != interp.VPointer {
				c := v.Complex()
				fmt.Fprintf(h, "%x:%x;", math.Float64bits(real(c)), math.Float64bits(imag(c)))
			}
			p.Off++
		}
	}
	return h.Sum64(), nil
}

func formatCounters(c interp.Counters) string {
	return fmt.Sprintf("int=%d float=%d fdiv=%d load=%d store=%d branch=%d call=%d math=%d alloc=%d steps=%d",
		c.IntOps, c.FloatOps, c.FloatDivs, c.Loads, c.Stores,
		c.Branches, c.Calls, c.MathCalls, c.Allocs, c.Steps)
}

// goldenRun drives b's entry once on a fresh runner: arrays of alen
// elements, scalar lengths from goldenIntArg. It renders one golden line.
func goldenRun(b *Benchmark, label string, alen int) (string, error) {
	r, err := NewRunner(b)
	if err != nil {
		return "", err
	}
	m := r.Machine
	args, arrays, err := goldenArgs(r, alen)
	if err != nil {
		return "", fmt.Errorf("%s: %w", b.Name, err)
	}
	_, callErr := m.Call(r.entry, args)
	counters := m.TotalCounters()
	line := fmt.Sprintf("%s %s %s", b.File, b.Name, label)
	var re *interp.RuntimeError
	switch {
	case errors.As(callErr, &re):
		line += fmt.Sprintf(" fault=%s@%s", re.Kind, re.Pos)
	case callErr != nil:
		return "", fmt.Errorf("%s: %w", b.Name, callErr)
	default:
		sum, err := goldenHash(m, arrays)
		if err != nil {
			return "", fmt.Errorf("%s: %w", b.Name, err)
		}
		line += fmt.Sprintf(" ok out=%016x", sum)
	}
	if out := m.Output(); out != "" {
		h := fnv.New64a()
		h.Write([]byte(out))
		line += fmt.Sprintf(" printed=%016x", h.Sum64())
	}
	return line + " " + formatCounters(counters), nil
}

// TestCorpusCounterGolden pins the interpreter's machine-independent
// operation counters on every corpus program: one run at n=64 and one
// faulting run whose arrays hold half the elements the length promises.
// The paper's speedup figures are computed from these counters, so any
// drift — including in the fault kind and position — is a behaviour
// change, not noise. Regenerate with -update-counters only when a change
// is meant to alter what the interpreter counts.
func TestCorpusCounterGolden(t *testing.T) {
	var b strings.Builder
	for _, bm := range Suite() {
		for _, run := range []struct {
			label string
			alen  int
		}{{"n=64", goldenN}, {"short", goldenN / 2}} {
			line, err := goldenRun(bm, run.label, run.alen)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(line + "\n")
		}
	}
	got := b.String()
	const path = "testdata/counters.golden"
	if *updateCounters {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-counters to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("counter golden drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("counter golden has %d lines, want %d", len(gl), len(wl))
		}
	}
}
