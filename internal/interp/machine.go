package interp

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"facc/internal/minic"
	"facc/internal/obs"
)

// FaultKind classifies runtime faults. Generate-and-test uses these the way
// the paper uses AddressSanitizer: a fault under a candidate binding is
// evidence the binding (e.g. an inferred length variable) is wrong.
type FaultKind int

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultOutOfBounds
	FaultNullDeref
	FaultUseAfterFree
	FaultDoubleFree
	FaultBadCast
	FaultDivZero
	FaultStackOverflow
	FaultFuelExhausted
	FaultBadPointerOp
	FaultUnsupported
	FaultAssert
	FaultExit
	// FaultCancelled reports that the machine's context was cancelled or
	// its deadline expired mid-interpretation (the error unwraps to the
	// context's cause, so errors.Is(err, context.DeadlineExceeded) works).
	FaultCancelled
	// FaultPanic classifies a Go panic recovered while evaluating a
	// candidate — the synthesis engine converts it into a per-candidate
	// rejection instead of letting it kill the process.
	FaultPanic
)

var faultNames = map[FaultKind]string{
	FaultOutOfBounds: "out-of-bounds", FaultNullDeref: "null-deref",
	FaultUseAfterFree: "use-after-free", FaultDoubleFree: "double-free",
	FaultBadCast: "bad-cast", FaultDivZero: "division-by-zero",
	FaultStackOverflow: "stack-overflow", FaultFuelExhausted: "fuel-exhausted",
	FaultBadPointerOp: "bad-pointer-op", FaultUnsupported: "unsupported",
	FaultAssert: "assertion-failure", FaultExit: "exit",
	FaultCancelled: "cancelled", FaultPanic: "panic",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// RuntimeError is a fault raised during interpretation.
type RuntimeError struct {
	Kind FaultKind
	Pos  minic.Pos
	Msg  string
	// Err is the underlying cause, when the fault wraps one (e.g. the
	// context error behind a FaultCancelled). May be nil.
	Err error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Pos, e.Kind, e.Msg)
}

// Unwrap exposes the cause so errors.Is/As see through the fault (e.g.
// errors.Is(err, context.DeadlineExceeded) on a cancellation fault).
func (e *RuntimeError) Unwrap() error { return e.Err }

// FaultOf extracts the fault kind from an error, seeing through any
// wrapping (fmt.Errorf %w etc.); FaultNone if no RuntimeError is in the
// chain.
func FaultOf(err error) FaultKind {
	var re *RuntimeError
	if errors.As(err, &re) {
		return re.Kind
	}
	return FaultNone
}

// Counters tallies executed operations; the accel package converts these
// into platform cycle estimates.
type Counters struct {
	IntOps    int64
	FloatOps  int64 // adds/subs/muls (complex ops decompose into these)
	FloatDivs int64
	Loads     int64
	Stores    int64
	Branches  int64
	Calls     int64
	MathCalls int64 // libm calls (sin, cos, ...)
	Allocs    int64
	Steps     int64
}

// Total returns the unweighted operation total.
func (c Counters) Total() int64 {
	return c.IntOps + c.FloatOps + c.FloatDivs + c.Loads + c.Stores +
		c.Branches + c.Calls + c.MathCalls
}

// Add accumulates o into c field by field.
func (c *Counters) Add(o Counters) {
	c.IntOps += o.IntOps
	c.FloatOps += o.FloatOps
	c.FloatDivs += o.FloatDivs
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Branches += o.Branches
	c.Calls += o.Calls
	c.MathCalls += o.MathCalls
	c.Allocs += o.Allocs
	c.Steps += o.Steps
}

// Sub returns c - o field by field. Snapshotting TotalCounters before a
// run and subtracting afterwards attributes one window of work on a
// long-lived (pooled) machine — the seam synthesis' shared reference
// oracle uses to meter reuse without resetting machine-lifetime totals.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		IntOps:    c.IntOps - o.IntOps,
		FloatOps:  c.FloatOps - o.FloatOps,
		FloatDivs: c.FloatDivs - o.FloatDivs,
		Loads:     c.Loads - o.Loads,
		Stores:    c.Stores - o.Stores,
		Branches:  c.Branches - o.Branches,
		Calls:     c.Calls - o.Calls,
		MathCalls: c.MathCalls - o.MathCalls,
		Allocs:    c.Allocs - o.Allocs,
		Steps:     c.Steps - o.Steps,
	}
}

// Machine interprets one MiniC translation unit. The zero value is not
// usable; call NewMachine.
type Machine struct {
	File     *minic.File
	Out      bytes.Buffer // captured printf/puts output
	Counters Counters
	// Totals accumulates the counters of every completed run: Reset folds
	// Counters into it, so a fuzz loop that Resets per case can still
	// report machine-lifetime totals (see TotalCounters).
	Totals   Counters
	MaxSteps int64 // fuel; 0 means DefaultMaxSteps
	MaxDepth int   // call depth limit; 0 means DefaultMaxDepth

	// Observe, when non-nil, is called with every scalar value assigned
	// to a named variable — FACC's value-profiling hook.
	Observe func(name string, v Value)

	// Obs, when non-nil, receives fault counters (interp.faults and
	// interp.faults.<kind>) — the observability hook. Nil is a no-op and
	// costs nothing on the interpretation hot path.
	Obs *obs.Registry

	// Ctx, when non-nil, is polled every ctxPollStride steps: once it is
	// cancelled (or its deadline passes) interpretation stops promptly
	// with a FaultCancelled that unwraps to the context error. Nil (the
	// default) keeps the step path free of context checks.
	Ctx context.Context

	globals     []Pointer // storage of each static slot; nil Alloc until declared
	funcs       map[string]*minic.FuncDecl
	nextAllocID int
	liveAllocs  int
	steps       int64
	depth       int
	exitCode    int
}

// Defaults for fuel and stack depth.
const (
	DefaultMaxSteps = 200_000_000
	DefaultMaxDepth = 4096
)

// ctxPollStride is how many interpreter steps run between context checks.
// A step averages about 100 ns over a corpus compile (perfbench's
// interp.ns_per_step on compile-pinned, 2-core x86-64 host), so 1024
// steps bound cancellation latency to roughly 0.1 ms while keeping
// Ctx.Err off the hot path.
const ctxPollStride = 1024

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// frame is one activation. Its cells are indexed by the checker's
// slots: a frame-resident scalar (see inFrame) lives in its own cell,
// and any other automatic variable's cell holds a pointer to the
// variable's Alloc. The cells are never addressable from the program,
// since a variable whose address is taken is not frame-resident.
type frame struct {
	fn    *minic.FuncDecl
	cells Alloc
	ret   Value
}

func newFrame(fn *minic.FuncDecl, slots int) *frame {
	return &frame{fn: fn, cells: Alloc{Name: "frame", Cells: make([]Value, slots)}}
}

// inFrame reports whether v lives in its frame cell rather than an Alloc
// of its own: an automatic scalar whose address is never taken. Arrays,
// structs and escaping variables keep Allocs, so bounds checks on them
// stay exact.
func inFrame(v *minic.VarDecl) bool {
	return !v.Escapes && !v.IsStatic() &&
		v.Type.Kind != minic.TArray && v.Type.Kind != minic.TStruct
}

// NewMachine builds a machine for f and evaluates global initializers.
// f must have been checked with minic.Check.
func NewMachine(f *minic.File) (*Machine, error) {
	m := &Machine{
		File:     f,
		MaxSteps: DefaultMaxSteps,
		MaxDepth: DefaultMaxDepth,
		globals:  make([]Pointer, f.NumGlobals),
		funcs:    map[string]*minic.FuncDecl{},
	}
	for _, fn := range f.Funcs {
		if prev, ok := m.funcs[fn.Name]; !ok || prev.Body == nil {
			m.funcs[fn.Name] = fn
		}
	}
	gf := newFrame(nil, 0)
	for _, g := range f.Globals {
		p, err := m.allocVar(gf, g)
		if err != nil {
			return nil, err
		}
		m.globals[g.Slot] = p
	}
	return m, nil
}

// Reset clears counters, output and fuel so the machine can run another
// call with fresh measurements. Global state persists (as it would in a
// process), which benchmark 11's twiddle-factor memoization relies on.
func (m *Machine) Reset() {
	m.Totals.Add(m.Counters)
	m.Counters = Counters{}
	m.Out.Reset()
	m.steps = 0
}

// TotalCounters returns the machine-lifetime operation counters: every
// completed (Reset) run plus the current one.
func (m *Machine) TotalCounters() Counters {
	t := m.Totals
	t.Add(m.Counters)
	return t
}

func (m *Machine) fault(pos minic.Pos, kind FaultKind, format string, args ...any) error {
	return m.faultCause(pos, kind, nil, format, args...)
}

// faultCause raises a fault wrapping an underlying error, so callers can
// classify with errors.Is/As through the RuntimeError.
func (m *Machine) faultCause(pos minic.Pos, kind FaultKind, cause error, format string, args ...any) error {
	if m.Obs != nil {
		m.Obs.Counter("interp.faults").Inc()
		m.Obs.Counter("interp.faults." + kind.String()).Inc()
	}
	return &RuntimeError{Kind: kind, Pos: pos, Msg: fmt.Sprintf(format, args...), Err: cause}
}

// step charges one step to the node n is about to evaluate. The node's
// position is read only when the step faults.
func (m *Machine) step(n minic.Node) error {
	m.steps++
	m.Counters.Steps++
	max := m.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	if m.steps > max {
		return m.fault(n.NodePos(), FaultFuelExhausted, "step limit %d exceeded", max)
	}
	if m.Ctx != nil && m.steps%ctxPollStride == 0 {
		if err := m.Ctx.Err(); err != nil {
			return m.faultCause(n.NodePos(), FaultCancelled, err,
				"interpretation cancelled: %v", err)
		}
	}
	return nil
}

// CallNamed invokes the named function with the given argument values.
func (m *Machine) CallNamed(name string, args []Value) (Value, error) {
	fn, ok := m.funcs[name]
	if !ok || fn.Body == nil {
		return Value{}, fmt.Errorf("interp: no function %q", name)
	}
	return m.Call(fn, args)
}

// Call invokes fn with args (converted to parameter types).
func (m *Machine) Call(fn *minic.FuncDecl, args []Value) (Value, error) {
	maxDepth := m.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	if m.depth >= maxDepth {
		return Value{}, m.fault(fn.Pos, FaultStackOverflow,
			"call depth %d exceeded in %s", maxDepth, fn.Name)
	}
	if len(args) != len(fn.Params) {
		return Value{}, fmt.Errorf("interp: %s expects %d args, got %d",
			fn.Name, len(fn.Params), len(args))
	}
	if fn.Body == nil {
		// A prototype (extern declaration) carries no body to execute.
		return Value{}, m.fault(fn.Pos, FaultUnsupported,
			"call to %s, which is declared but not defined", fn.Name)
	}
	m.depth++
	defer func() { m.depth-- }()
	m.Counters.Calls++

	fr := newFrame(fn, fn.NumSlots)
	for i, prm := range fn.Params {
		av, err := Convert(args[i], prm.Type)
		if err != nil {
			return Value{}, m.fault(fn.Pos, FaultBadCast, "argument %d to %s: %v", i+1, fn.Name, err)
		}
		// Value profiling observes parameter values too — the paper's
		// profiling environment records what each call site passes.
		if m.Observe != nil && av.K == VInt {
			m.Observe(prm.Name, av)
		}
		p := m.place(fr, prm, prm.Type, 1)
		if err := m.StoreObject(p, prm.Type, av, fn.Pos); err != nil {
			return Value{}, err
		}
	}
	c, err := m.execStmt(fr, fn.Body)
	if err != nil {
		return Value{}, err
	}
	if c == ctrlReturn {
		return fr.ret, nil
	}
	return VoidValue(), nil
}

// place gives v fresh zeroed storage for count elements of elem and
// books one allocation either way. A frame-resident scalar re-zeroes its
// frame cell; anything else gets a new Alloc, which an automatic
// variable's frame cell records (statics are recorded by the caller
// once initialized).
func (m *Machine) place(fr *frame, v *minic.VarDecl, elem *minic.Type, count int) Pointer {
	if inFrame(v) {
		m.countAlloc()
		fr.cells.Cells[v.Slot] = zeroValue(v.Type)
		return Pointer{Alloc: &fr.cells, Off: v.Slot, Elem: v.Type}
	}
	p := Pointer{Alloc: m.NewAlloc(v.Name, elem, count), Elem: v.Type}
	if !v.IsStatic() {
		fr.cells.Cells[v.Slot] = PointerValue(p, nil)
	}
	return p
}

// allocVar allocates storage for a declaration and runs its initializer.
func (m *Machine) allocVar(fr *frame, v *minic.VarDecl) (Pointer, error) {
	t := v.Type
	elem, count := t, 1
	switch {
	case t.Kind == minic.TArray && t.ArrayLen >= 0:
		elem, count = t.Elem, t.ArrayLen
	case t.Kind == minic.TArray && t.ArrayLenExpr != nil:
		n, err := m.evalExpr(fr, t.ArrayLenExpr)
		if err != nil {
			return Pointer{}, err
		}
		if n.Int() < 0 {
			return Pointer{}, m.fault(v.Pos, FaultOutOfBounds, "negative VLA length %d", n.Int())
		}
		if FlatSize(t.Elem) == 0 {
			return Pointer{}, m.fault(v.Pos, FaultUnsupported, "VLA of dynamically sized element")
		}
		elem, count = t.Elem, int(n.Int())
	case t.Kind == minic.TArray:
		// Incomplete array with no initializer-completed length.
		return Pointer{}, m.fault(v.Pos, FaultUnsupported, "array %q has unknown length", v.Name)
	}
	p := m.place(fr, v, elem, count)
	m.Counters.Allocs++
	if v.Init != nil {
		if err := m.runInit(fr, p, t, v.Init, v); err != nil {
			return Pointer{}, err
		}
	}
	return p, nil
}

// runInit stores an initializer (scalar or brace list) into storage at p.
func (m *Machine) runInit(fr *frame, p Pointer, t *minic.Type, init minic.Expr, v *minic.VarDecl) error {
	il, isList := init.(*minic.InitListExpr)
	if !isList {
		val, err := m.evalExpr(fr, init)
		if err != nil {
			return err
		}
		if v != nil && m.Observe != nil && val.K != VStruct && val.K != VVoid {
			m.Observe(v.Name, val)
		}
		return m.StoreObject(p, t.Decay(), val, init.NodePos())
	}
	switch t.Kind {
	case minic.TArray:
		per := FlatSize(t.Elem)
		for i, item := range il.Items {
			ep := Pointer{Alloc: p.Alloc, Off: p.Off + i*per, Elem: t.Elem}
			if err := m.runInit(fr, ep, t.Elem, item, nil); err != nil {
				return err
			}
		}
		return nil
	case minic.TStruct:
		for i, item := range il.Items {
			ft := t.Fields[i].Type
			fp := Pointer{Alloc: p.Alloc, Off: p.Off + fieldOffset(t, i), Elem: ft}
			if err := m.runInit(fr, fp, ft, item, nil); err != nil {
				return err
			}
		}
		return nil
	default:
		if len(il.Items) == 1 {
			return m.runInit(fr, p, t, il.Items[0], v)
		}
		return m.fault(il.Pos, FaultBadCast, "scalar initializer list for %s", t)
	}
}

// ---- Statements ----

func (m *Machine) execStmt(fr *frame, s minic.Stmt) (ctrl, error) {
	if s == nil {
		return ctrlNone, nil
	}
	if err := m.step(s); err != nil {
		return ctrlNone, err
	}
	switch st := s.(type) {
	case *minic.ExprStmt:
		_, err := m.evalExpr(fr, st.X)
		return ctrlNone, err
	case *minic.DeclStmt:
		for _, d := range st.Decls {
			// Function-scoped statics allocate and initialize once and
			// persist across calls (C semantics).
			if d.Storage == minic.SCStatic {
				if m.globals[d.Slot].Alloc != nil {
					continue
				}
				p, err := m.allocVar(fr, d)
				if err != nil {
					return ctrlNone, err
				}
				m.globals[d.Slot] = p
				continue
			}
			if _, err := m.allocVar(fr, d); err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, nil
	case *minic.BlockStmt:
		for _, sub := range st.List {
			c, err := m.execStmt(fr, sub)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	case *minic.IfStmt:
		cond, err := m.evalExpr(fr, st.Cond)
		if err != nil {
			return ctrlNone, err
		}
		m.Counters.Branches++
		if !cond.IsZero() {
			return m.execStmt(fr, st.Then)
		}
		return m.execStmt(fr, st.Else)
	case *minic.ForStmt:
		if st.Init != nil {
			if _, err := m.execStmt(fr, st.Init); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if st.Cond != nil {
				cond, err := m.evalExpr(fr, st.Cond)
				if err != nil {
					return ctrlNone, err
				}
				m.Counters.Branches++
				if cond.IsZero() {
					return ctrlNone, nil
				}
			}
			c, err := m.execStmt(fr, st.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if st.Post != nil {
				if _, err := m.evalExpr(fr, st.Post); err != nil {
					return ctrlNone, err
				}
			}
			if err := m.step(st); err != nil {
				return ctrlNone, err
			}
		}
	case *minic.WhileStmt:
		if st.Do {
			for {
				c, err := m.execStmt(fr, st.Body)
				if err != nil {
					return ctrlNone, err
				}
				if c == ctrlBreak {
					return ctrlNone, nil
				}
				if c == ctrlReturn {
					return c, nil
				}
				cond, err := m.evalExpr(fr, st.Cond)
				if err != nil {
					return ctrlNone, err
				}
				m.Counters.Branches++
				if cond.IsZero() {
					return ctrlNone, nil
				}
				if err := m.step(st); err != nil {
					return ctrlNone, err
				}
			}
		}
		for {
			cond, err := m.evalExpr(fr, st.Cond)
			if err != nil {
				return ctrlNone, err
			}
			m.Counters.Branches++
			if cond.IsZero() {
				return ctrlNone, nil
			}
			c, err := m.execStmt(fr, st.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			if err := m.step(st); err != nil {
				return ctrlNone, err
			}
		}
	case *minic.SwitchStmt:
		tag, err := m.evalExpr(fr, st.Tag)
		if err != nil {
			return ctrlNone, err
		}
		m.Counters.Branches++
		match := -1
		for i, cc := range st.Cases {
			if cc.IsDefault {
				continue
			}
			cv, err := m.evalExpr(fr, cc.Value)
			if err != nil {
				return ctrlNone, err
			}
			if cv.Int() == tag.Int() {
				match = i
				break
			}
		}
		if match < 0 {
			for i, cc := range st.Cases {
				if cc.IsDefault {
					match = i
					break
				}
			}
		}
		if match < 0 {
			return ctrlNone, nil
		}
		// Fall through subsequent cases until break/return.
		for i := match; i < len(st.Cases); i++ {
			for _, sub := range st.Cases[i].Body {
				c, err := m.execStmt(fr, sub)
				if err != nil {
					return ctrlNone, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, nil
				case ctrlReturn, ctrlContinue:
					return c, nil
				}
			}
		}
		return ctrlNone, nil
	case *minic.BreakStmt:
		return ctrlBreak, nil
	case *minic.ContinueStmt:
		return ctrlContinue, nil
	case *minic.ReturnStmt:
		if st.Value != nil {
			v, err := m.evalExpr(fr, st.Value)
			if err != nil {
				return ctrlNone, err
			}
			rt := fr.fn.Type.Ret
			cv, err := Convert(v, rt.Decay())
			if err != nil {
				return ctrlNone, m.fault(st.Pos, FaultBadCast, "return: %v", err)
			}
			fr.ret = cv
		} else {
			fr.ret = VoidValue()
		}
		return ctrlReturn, nil
	default:
		return ctrlNone, m.fault(s.NodePos(), FaultUnsupported, "statement %T", s)
	}
}
