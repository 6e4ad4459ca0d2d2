package interp

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"

	"facc/internal/minic"
)

// callBuiltin dispatches a recognized library call.
func (m *Machine) callBuiltin(fr *frame, x *minic.CallExpr) (Value, error) {
	b := minic.Builtins[x.Builtin]
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := m.evalExpr(fr, a)
		if err != nil {
			return Value{}, err
		}
		if b != nil && !b.Variadic && i < len(b.Params) {
			cv, err := Convert(v, b.Params[i])
			if err != nil {
				return Value{}, m.fault(a.NodePos(), FaultBadCast, "%s: %v", x.Builtin, err)
			}
			v = cv
		}
		args[i] = v
	}
	name := x.Builtin
	// Single-precision variants share implementations; the result is
	// rounded through float32 by FloatValue/ComplexValue.
	base := strings.TrimSuffix(name, "f")
	isF32 := strings.HasSuffix(name, "f") && base != "printf" && name != "fprintf" && name != "printf"
	rt := minic.Double
	crt := minic.ComplexDouble
	if isF32 {
		rt = minic.Float
		crt = minic.ComplexFloat
	}

	if fn, ok := math1[base]; ok && len(args) == 1 && isF32 == (name != base) {
		m.Counters.MathCalls++
		return FloatValue(fn(args[0].Float()), rt), nil
	}
	if fn, ok := math2[base]; ok && len(args) == 2 {
		m.Counters.MathCalls++
		return FloatValue(fn(args[0].Float(), args[1].Float()), rt), nil
	}
	if fn, ok := cmath1[base]; ok && len(args) == 1 {
		m.Counters.MathCalls += 2
		return ComplexValue(fn(args[0].Complex()), crt), nil
	}
	if fn, ok := cmathReal[base]; ok && len(args) == 1 {
		m.Counters.MathCalls++
		return FloatValue(fn(args[0].Complex()), rt), nil
	}

	switch name {
	case "ldexp":
		m.Counters.MathCalls++
		return FloatValue(math.Ldexp(args[0].Float(), int(args[1].Int())), minic.Double), nil
	case "cpow":
		m.Counters.MathCalls += 4
		return ComplexValue(cmplx.Pow(args[0].Complex(), args[1].Complex()), crt), nil
	case "abs":
		m.Counters.IntOps++
		v := args[0].Int()
		if v < 0 {
			v = -v
		}
		return IntValue(v), nil
	case "labs":
		m.Counters.IntOps++
		v := args[0].Int()
		if v < 0 {
			v = -v
		}
		return LongValue(v), nil
	case "malloc":
		return m.builtinMalloc(args[0].Int(), x.Pos)
	case "calloc":
		return m.builtinMalloc(args[0].Int()*args[1].Int(), x.Pos)
	case "realloc":
		return m.builtinRealloc(args[0], args[1].Int(), x.Pos)
	case "free":
		return VoidValue(), m.builtinFree(args[0], x.Pos)
	case "memcpy", "memmove":
		return m.builtinMemcpy(args[0], args[1], args[2].Int(), x.Pos)
	case "memset":
		return m.builtinMemset(args[0], args[1].Int(), args[2].Int(), x.Pos)
	case "printf":
		return m.builtinPrintf(args, x.Pos)
	case "fprintf":
		if len(args) < 1 {
			return IntValue(0), nil
		}
		return m.builtinPrintf(args[1:], x.Pos)
	case "puts":
		s, err := m.cString(args[0], x.Pos)
		if err != nil {
			return Value{}, err
		}
		m.Out.WriteString(s)
		m.Out.WriteByte('\n')
		return IntValue(int64(len(s) + 1)), nil
	case "putchar":
		m.Out.WriteByte(byte(args[0].Int()))
		return IntValue(args[0].Int()), nil
	case "exit":
		m.exitCode = int(args[0].Int())
		return Value{}, m.fault(x.Pos, FaultExit, "exit(%d)", m.exitCode)
	case "assert":
		if args[0].IsZero() {
			return Value{}, m.fault(x.Pos, FaultAssert, "assertion failed")
		}
		return VoidValue(), nil
	}
	return Value{}, m.fault(x.Pos, FaultUnsupported, "builtin %q not implemented", name)
}

var math1 = map[string]func(float64) float64{
	"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
	"asin": math.Asin, "acos": math.Acos, "atan": math.Atan,
	"sqrt": math.Sqrt, "exp": math.Exp, "log": math.Log,
	"log2": math.Log2, "log10": math.Log10, "fabs": math.Abs,
	"floor": math.Floor, "ceil": math.Ceil, "round": math.Round,
	"trunc": math.Trunc, "cbrt": math.Cbrt, "sinh": math.Sinh,
	"cosh": math.Cosh, "tanh": math.Tanh,
}

var math2 = map[string]func(float64, float64) float64{
	"pow": math.Pow, "atan2": math.Atan2, "fmod": math.Mod,
	"hypot": math.Hypot, "fmin": math.Min, "fmax": math.Max,
}

var cmath1 = map[string]func(complex128) complex128{
	"cexp": cmplx.Exp, "csqrt": cmplx.Sqrt, "conj": cmplx.Conj,
}

var cmathReal = map[string]func(complex128) float64{
	"creal": func(c complex128) float64 { return real(c) },
	"cimag": func(c complex128) float64 { return imag(c) },
	"cabs":  cmplx.Abs,
	"carg":  func(c complex128) float64 { return cmplx.Phase(c) },
}

func (m *Machine) builtinMalloc(size int64, pos minic.Pos) (Value, error) {
	if size < 0 {
		return Value{}, m.fault(pos, FaultOutOfBounds, "malloc of negative size %d", size)
	}
	m.Counters.Allocs++
	a := m.newRawAlloc(fmt.Sprintf("malloc#%d", m.nextAllocID+1), int(size))
	return PointerValue(Pointer{Alloc: a, Elem: minic.Void}, minic.PointerTo(minic.Void)), nil
}

func (m *Machine) builtinRealloc(old Value, size int64, pos minic.Pos) (Value, error) {
	nv, err := m.builtinMalloc(size, pos)
	if err != nil {
		return Value{}, err
	}
	if old.K == VPointer && old.A != nil {
		oa := old.A
		if oa.Freed {
			return Value{}, m.fault(pos, FaultUseAfterFree, "realloc of freed block")
		}
		na := nv.A
		if oa.Cells != nil {
			na.ElemType = oa.ElemType
			n := len(oa.Cells)
			target := n
			if oa.ElemType != nil {
				if es := oa.ElemType.Sizeof(); es > 0 {
					target = int(size) / es * FlatSize(oa.ElemType)
				}
			}
			cells := make([]Value, target)
			leaves := FlatLeaves(oa.ElemType, nil)
			per := len(leaves)
			for i := range cells {
				if i < n {
					cells[i] = oa.Cells[i]
				} else if per > 0 {
					cells[i] = zeroValue(leaves[i%per])
				}
			}
			na.Cells = cells
			na.RawBytes = 0
		}
		oa.Freed = true
	}
	return nv, nil
}

func (m *Machine) builtinFree(v Value, pos minic.Pos) error {
	if v.K != VPointer {
		return m.fault(pos, FaultBadPointerOp, "free of non-pointer")
	}
	a := v.A
	if a == nil {
		return nil // free(NULL) is a no-op
	}
	if a.Freed {
		return m.fault(pos, FaultDoubleFree, "double free of %s", a.Name)
	}
	if v.I != 0 {
		return m.fault(pos, FaultBadPointerOp, "free of interior pointer into %s", a.Name)
	}
	a.Freed = true
	m.liveAllocs--
	return nil
}

func (m *Machine) builtinMemcpy(dst, src Value, nbytes int64, pos minic.Pos) (Value, error) {
	if dst.K != VPointer || src.K != VPointer {
		return Value{}, m.fault(pos, FaultBadPointerOp, "memcpy of non-pointers")
	}
	dp, sp := dst.Ptr(), src.Ptr()
	// Use the source view to size the copy; fall back to the destination.
	elem := sp.Elem
	if elem == nil || elem.Kind == minic.TVoid {
		elem = dp.Elem
	}
	if elem == nil || elem.Kind == minic.TVoid || elem.Sizeof() == 0 {
		return Value{}, m.fault(pos, FaultBadPointerOp, "memcpy through untyped pointers")
	}
	if int(nbytes)%elem.Sizeof() != 0 {
		return Value{}, m.fault(pos, FaultBadPointerOp,
			"memcpy of %d bytes is not a multiple of sizeof(%s)", nbytes, elem)
	}
	count := int(nbytes) / elem.Sizeof() * FlatSize(elem)
	dp.Elem, sp.Elem = elem, elem
	if err := m.checkAccess(sp, count, pos); err != nil {
		return Value{}, err
	}
	if err := m.checkAccess(dp, count, pos); err != nil {
		return Value{}, err
	}
	m.Counters.Loads += int64(count)
	m.Counters.Stores += int64(count)
	tmp := make([]Value, count)
	copy(tmp, sp.Alloc.Cells[sp.Off:sp.Off+count])
	for i, v := range tmp {
		cv, err := Convert(v, dp.Alloc.Cells[dp.Off+i].T)
		if err != nil {
			return Value{}, m.fault(pos, FaultBadCast, "memcpy: %v", err)
		}
		dp.Alloc.Cells[dp.Off+i] = cv
	}
	return dst, nil
}

func (m *Machine) builtinMemset(dst Value, val, nbytes int64, pos minic.Pos) (Value, error) {
	if dst.K != VPointer {
		return Value{}, m.fault(pos, FaultBadPointerOp, "memset of non-pointer")
	}
	if val != 0 {
		return Value{}, m.fault(pos, FaultUnsupported, "memset with non-zero value %d", val)
	}
	p := dst.Ptr()
	elem := p.Elem
	if elem == nil || elem.Kind == minic.TVoid || elem.Sizeof() == 0 {
		return Value{}, m.fault(pos, FaultBadPointerOp, "memset through untyped pointer")
	}
	if int(nbytes)%elem.Sizeof() != 0 {
		return Value{}, m.fault(pos, FaultBadPointerOp,
			"memset of %d bytes is not a multiple of sizeof(%s)", nbytes, elem)
	}
	count := int(nbytes) / elem.Sizeof() * FlatSize(elem)
	if err := m.checkAccess(p, count, pos); err != nil {
		return Value{}, err
	}
	m.Counters.Stores += int64(count)
	for i := 0; i < count; i++ {
		cell := &p.Alloc.Cells[p.Off+i]
		*cell = zeroValue(cell.T)
	}
	return dst, nil
}

// cString reads a NUL-terminated string through a char pointer.
func (m *Machine) cString(v Value, pos minic.Pos) (string, error) {
	if v.K != VPointer {
		return "", m.fault(pos, FaultBadPointerOp, "expected string pointer")
	}
	var b strings.Builder
	p := v.Ptr()
	p.Elem = minic.Char
	for {
		cv, err := m.LoadScalar(p, pos)
		if err != nil {
			return "", err
		}
		if cv.I == 0 {
			return b.String(), nil
		}
		b.WriteByte(byte(cv.I))
		p.Off++
		if b.Len() > 1<<20 {
			return "", m.fault(pos, FaultOutOfBounds, "unterminated string")
		}
	}
}

// builtinPrintf implements the printf subset the corpus uses:
// %d %i %u %ld %lu %f %lf %g %e %c %s %x %% with optional width/precision.
func (m *Machine) builtinPrintf(args []Value, pos minic.Pos) (Value, error) {
	if len(args) == 0 {
		return IntValue(0), nil
	}
	format, err := m.cString(args[0], pos)
	if err != nil {
		return Value{}, err
	}
	rest := args[1:]
	argi := 0
	nextArg := func() (Value, bool) {
		if argi < len(rest) {
			v := rest[argi]
			argi++
			return v, true
		}
		return Value{}, false
	}
	var out strings.Builder
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			out.WriteByte(c)
			i++
			continue
		}
		// Collect the directive.
		j := i + 1
		for j < len(format) && strings.ContainsRune("-+ 0123456789.*lhz", rune(format[j])) {
			j++
		}
		if j >= len(format) {
			out.WriteByte('%')
			break
		}
		verb := format[j]
		spec := format[i : j+1]
		goSpec := strings.Map(func(r rune) rune {
			if r == 'l' || r == 'h' || r == 'z' {
				return -1
			}
			return r
		}, spec)
		switch verb {
		case '%':
			out.WriteByte('%')
		case 'd', 'i':
			v, _ := nextArg()
			fmt.Fprintf(&out, strings.Replace(goSpec, string(verb), "d", 1), v.Int())
		case 'u', 'x', 'X', 'o':
			v, _ := nextArg()
			gverb := verb
			if verb == 'u' {
				gverb = 'd'
			}
			fmt.Fprintf(&out, strings.Replace(goSpec, string(verb), string(gverb), 1), uint64(v.Int()))
		case 'f', 'F', 'e', 'E', 'g', 'G':
			v, _ := nextArg()
			fmt.Fprintf(&out, goSpec, v.Float())
		case 'c':
			v, _ := nextArg()
			out.WriteByte(byte(v.Int()))
		case 's':
			v, ok := nextArg()
			if ok {
				s, err := m.cString(v, pos)
				if err != nil {
					return Value{}, err
				}
				fmt.Fprintf(&out, strings.Replace(goSpec, "s", "s", 1), s)
			}
		case 'p':
			v, _ := nextArg()
			fmt.Fprintf(&out, "%#x", v.Int())
		default:
			out.WriteString(spec)
		}
		i = j + 1
	}
	m.Out.WriteString(out.String())
	return IntValue(int64(out.Len())), nil
}

// Output returns everything the program printed so far.
func (m *Machine) Output() string { return m.Out.String() }

// ExitCode returns the code passed to exit(), if the program exited.
func (m *Machine) ExitCode() int { return m.exitCode }
