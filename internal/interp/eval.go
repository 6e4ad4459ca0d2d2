package interp

import (
	"facc/internal/minic"
)

// evalExpr evaluates e as an rvalue.
func (m *Machine) evalExpr(fr *frame, e minic.Expr) (Value, error) {
	if err := m.step(e); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *minic.IntLitExpr:
		return Value{K: VInt, T: x.ResultType(), I: x.Value}, nil
	case *minic.FloatLitExpr:
		return FloatValue(x.Value, x.ResultType()), nil
	case *minic.ImaginaryLitExpr:
		return ComplexValue(complex(0, 1), x.ResultType()), nil
	case *minic.StringLitExpr:
		return m.stringValue(x)
	case *minic.IdentExpr:
		return m.evalIdent(fr, x)
	case *minic.UnaryExpr:
		return m.evalUnary(fr, x)
	case *minic.BinaryExpr:
		return m.evalBinary(fr, x)
	case *minic.AssignExpr:
		return m.evalAssign(fr, x)
	case *minic.CondExpr:
		cond, err := m.evalExpr(fr, x.Cond)
		if err != nil {
			return Value{}, err
		}
		m.Counters.Branches++
		var v Value
		if !cond.IsZero() {
			v, err = m.evalExpr(fr, x.Then)
		} else {
			v, err = m.evalExpr(fr, x.Else)
		}
		if err != nil {
			return Value{}, err
		}
		if x.ResultType().IsArithmetic() {
			return Convert(v, x.ResultType())
		}
		return v, nil
	case *minic.CallExpr:
		return m.evalCall(fr, x)
	case *minic.IndexExpr:
		p, err := m.indexAddr(fr, x)
		if err != nil {
			return Value{}, err
		}
		return m.loadFrom(p, x.ResultType(), x.Pos)
	case *minic.MemberExpr:
		return m.evalMember(fr, x)
	case *minic.CastExpr:
		v, err := m.evalExpr(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		cv, err := Convert(v, x.To.Decay())
		if err != nil {
			return Value{}, m.fault(x.Pos, FaultBadCast, "cast: %v", err)
		}
		return cv, nil
	case *minic.SizeofExpr:
		t := x.OfType
		if t == nil {
			t = x.X.ResultType()
		}
		size := t.Sizeof()
		if size == 0 && t.Kind == minic.TArray && t.ArrayLenExpr != nil {
			n, err := m.evalExpr(fr, t.ArrayLenExpr)
			if err != nil {
				return Value{}, err
			}
			size = int(n.Int()) * t.Elem.Sizeof()
		}
		return LongValue(int64(size)), nil
	case *minic.CommaExpr:
		if _, err := m.evalExpr(fr, x.L); err != nil {
			return Value{}, err
		}
		return m.evalExpr(fr, x.R)
	default:
		return Value{}, m.fault(e.NodePos(), FaultUnsupported, "expression %T", e)
	}
}

// stringValue materializes a string literal as a char allocation.
func (m *Machine) stringValue(x *minic.StringLitExpr) (Value, error) {
	a := m.NewAlloc("string", minic.Char, len(x.Value)+1)
	for i := 0; i < len(x.Value); i++ {
		a.Cells[i] = Value{K: VInt, T: minic.Char, I: int64(x.Value[i])}
	}
	return PointerValue(Pointer{Alloc: a, Elem: minic.Char}, minic.PointerTo(minic.Char)), nil
}

func (m *Machine) evalIdent(fr *frame, x *minic.IdentExpr) (Value, error) {
	if x.Def == nil {
		if x.Name == "stderr" || x.Name == "stdout" || x.Name == "stdin" {
			return PointerValue(Pointer{}, minic.PointerTo(minic.Void)), nil
		}
		return Value{}, m.fault(x.Pos, FaultUnsupported,
			"cannot evaluate function %q as a value", x.Name)
	}
	p, err := m.varAddr(fr, x)
	if err != nil {
		return Value{}, err
	}
	t := x.Def.Type
	if t.Kind == minic.TArray {
		// Arrays decay to a pointer to their first element.
		return PointerValue(Pointer{Alloc: p.Alloc, Off: p.Off, Elem: t.Elem},
			minic.PointerTo(t.Elem)), nil
	}
	return m.LoadObject(p, t, x.Pos)
}

// varAddr returns the storage of a named variable from its slot.
func (m *Machine) varAddr(fr *frame, x *minic.IdentExpr) (Pointer, error) {
	d := x.Def
	switch {
	case d.IsStatic():
		if p := m.globals[d.Slot]; p.Alloc != nil {
			return p, nil
		}
	case inFrame(d):
		return Pointer{Alloc: &fr.cells, Off: d.Slot, Elem: d.Type}, nil
	default:
		if c := fr.cells.Cells[d.Slot]; c.A != nil {
			return c.Ptr(), nil
		}
	}
	return Pointer{}, m.fault(x.Pos, FaultUnsupported, "no storage for %q", x.Name)
}

// lvalueAddr computes the address an lvalue expression designates.
func (m *Machine) lvalueAddr(fr *frame, e minic.Expr) (Pointer, error) {
	switch x := e.(type) {
	case *minic.IdentExpr:
		return m.varAddr(fr, x)
	case *minic.UnaryExpr:
		if x.Op != minic.Star {
			break
		}
		v, err := m.evalExpr(fr, x.X)
		if err != nil {
			return Pointer{}, err
		}
		if v.K != VPointer {
			return Pointer{}, m.fault(x.Pos, FaultBadPointerOp, "dereference of non-pointer")
		}
		p := v.Ptr()
		p.Elem = x.ResultType()
		return p, nil
	case *minic.IndexExpr:
		return m.indexAddr(fr, x)
	case *minic.MemberExpr:
		return m.memberAddr(fr, x)
	}
	return Pointer{}, m.fault(e.NodePos(), FaultUnsupported, "expression %T is not an lvalue", e)
}

func (m *Machine) indexAddr(fr *frame, x *minic.IndexExpr) (Pointer, error) {
	base, err := m.evalExpr(fr, x.X)
	if err != nil {
		return Pointer{}, err
	}
	if base.K != VPointer {
		return Pointer{}, m.fault(x.Pos, FaultBadPointerOp, "index of non-pointer value")
	}
	idx, err := m.evalExpr(fr, x.Index)
	if err != nil {
		return Pointer{}, err
	}
	m.Counters.IntOps++
	elem := x.ResultType()
	p := base.Ptr()
	p.Elem = elem
	step := FlatSize(elem)
	if step == 0 {
		// VLA row: compute the dynamic flat size.
		step, err = m.dynFlatSize(fr, elem, x.Pos)
		if err != nil {
			return Pointer{}, err
		}
	}
	p.Off += int(idx.Int()) * step
	return p, nil
}

// dynFlatSize computes the flat size of a type whose array lengths are
// dynamic expressions (VLA rows).
func (m *Machine) dynFlatSize(fr *frame, t *minic.Type, pos minic.Pos) (int, error) {
	if s := FlatSize(t); s > 0 {
		return s, nil
	}
	if t.Kind == minic.TArray && t.ArrayLenExpr != nil {
		n, err := m.evalExpr(fr, t.ArrayLenExpr)
		if err != nil {
			return 0, err
		}
		inner, err := m.dynFlatSize(fr, t.Elem, pos)
		if err != nil {
			return 0, err
		}
		return int(n.Int()) * inner, nil
	}
	return 0, m.fault(pos, FaultUnsupported, "cannot size type %s dynamically", t)
}

func (m *Machine) memberAddr(fr *frame, x *minic.MemberExpr) (Pointer, error) {
	var base Pointer
	var st *minic.Type
	if x.Arrow {
		v, err := m.evalExpr(fr, x.X)
		if err != nil {
			return Pointer{}, err
		}
		if v.K != VPointer {
			return Pointer{}, m.fault(x.Pos, FaultBadPointerOp, "-> on non-pointer")
		}
		base = v.Ptr()
		st = x.X.ResultType().Decay().Elem
	} else {
		p, err := m.lvalueAddr(fr, x.X)
		if err != nil {
			return Pointer{}, err
		}
		base = p
		st = x.X.ResultType()
	}
	p := base
	p.Off += fieldOffset(st, x.FieldIndex)
	p.Elem = x.ResultType()
	return p, nil
}

func (m *Machine) evalMember(fr *frame, x *minic.MemberExpr) (Value, error) {
	// Struct rvalues that have no address (function results) are sliced
	// directly; everything else goes through memory.
	if !x.Arrow {
		if _, isCall := x.X.(*minic.CallExpr); isCall {
			v, err := m.evalExpr(fr, x.X)
			if err != nil {
				return Value{}, err
			}
			st := x.X.ResultType()
			off := fieldOffset(st, x.FieldIndex)
			ft := x.ResultType()
			n := FlatSize(ft)
			if ft.Kind == minic.TStruct {
				return structValue(ft, v.leaves()[off:off+n]), nil
			}
			return v.leaves()[off], nil
		}
	}
	p, err := m.memberAddr(fr, x)
	if err != nil {
		return Value{}, err
	}
	return m.loadFrom(p, x.ResultType(), x.Pos)
}

// loadFrom reads a value of type t at p, decaying arrays to pointers.
func (m *Machine) loadFrom(p Pointer, t *minic.Type, pos minic.Pos) (Value, error) {
	if t.Kind == minic.TArray {
		return PointerValue(Pointer{Alloc: p.Alloc, Off: p.Off, Elem: t.Elem},
			minic.PointerTo(t.Elem)), nil
	}
	return m.LoadObject(p, t, pos)
}

func (m *Machine) evalUnary(fr *frame, x *minic.UnaryExpr) (Value, error) {
	switch x.Op {
	case minic.Amp:
		p, err := m.lvalueAddr(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		return PointerValue(p, x.ResultType()), nil
	case minic.Star:
		p, err := m.lvalueAddr(fr, x)
		if err != nil {
			return Value{}, err
		}
		return m.loadFrom(p, x.ResultType(), x.Pos)
	case minic.PlusPlus, minic.MinusMinus:
		p, err := m.lvalueAddr(fr, x.X)
		if err != nil {
			return Value{}, err
		}
		old, err := m.LoadScalar(p, x.Pos)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == minic.MinusMinus {
			delta = -1
		}
		var nv Value
		switch old.K {
		case VInt:
			m.Counters.IntOps++
			nv = truncInt(old.I+delta, old.T)
		case VFloat:
			m.Counters.FloatOps++
			nv = FloatValue(old.f64()+float64(delta), old.T)
		case VPointer:
			m.Counters.IntOps++
			nv = PointerValue(PointerAdd(old.Ptr(), delta), old.T)
		default:
			return Value{}, m.fault(x.Pos, FaultUnsupported, "%s on %s", x.Op, old.T)
		}
		if err := m.StoreScalar(p, nv, x.Pos); err != nil {
			return Value{}, err
		}
		if x.Post {
			return old, nil
		}
		return nv, nil
	}
	v, err := m.evalExpr(fr, x.X)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case minic.Minus:
		cv, err := Convert(v, x.ResultType())
		if err != nil {
			return Value{}, m.fault(x.Pos, FaultBadCast, "%v", err)
		}
		switch cv.K {
		case VInt:
			m.Counters.IntOps++
			return truncInt(-cv.I, cv.T), nil
		case VFloat:
			m.Counters.FloatOps++
			return FloatValue(-cv.f64(), cv.T), nil
		case VComplex:
			m.Counters.FloatOps += 2
			return ComplexValue(-cv.c128(), cv.T), nil
		}
	case minic.Plus:
		return Convert(v, x.ResultType())
	case minic.Not:
		m.Counters.IntOps++
		if v.IsZero() {
			return IntValue(1), nil
		}
		return IntValue(0), nil
	case minic.Tilde:
		m.Counters.IntOps++
		return truncInt(^v.Int(), x.ResultType()), nil
	}
	return Value{}, m.fault(x.Pos, FaultUnsupported, "unary %s", x.Op)
}

func (m *Machine) evalBinary(fr *frame, x *minic.BinaryExpr) (Value, error) {
	// Short-circuit operators evaluate lazily.
	if x.Op == minic.AndAnd || x.Op == minic.OrOr {
		l, err := m.evalExpr(fr, x.L)
		if err != nil {
			return Value{}, err
		}
		m.Counters.Branches++
		if x.Op == minic.AndAnd && l.IsZero() {
			return IntValue(0), nil
		}
		if x.Op == minic.OrOr && !l.IsZero() {
			return IntValue(1), nil
		}
		r, err := m.evalExpr(fr, x.R)
		if err != nil {
			return Value{}, err
		}
		if r.IsZero() {
			return IntValue(0), nil
		}
		return IntValue(1), nil
	}
	l, err := m.evalExpr(fr, x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := m.evalExpr(fr, x.R)
	if err != nil {
		return Value{}, err
	}
	return m.applyBinary(x.Op, l, r, x.ResultType(), x.Pos)
}

// applyBinary performs op on already-evaluated operands, producing a value
// of result type rt.
func (m *Machine) applyBinary(op minic.Kind, l, r Value, rt *minic.Type, pos minic.Pos) (Value, error) {
	// Pointer arithmetic and comparisons.
	if l.K == VPointer || r.K == VPointer {
		return m.applyPointerBinary(op, l, r, rt, pos)
	}
	switch op {
	case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
		return m.applyComparison(op, l, r, pos)
	}
	// Usual arithmetic conversions to the result type.
	// Operands already rounded for ct are used as they are: the
	// operations read only their payload and take the type from ct.
	ct := minic.UsualArith(l.T, r.T)
	lc, rc := l, r
	var err error
	if !rounded(l, ct) {
		lc, err = Convert(l, ct)
	}
	if err == nil && !rounded(r, ct) {
		rc, err = Convert(r, ct)
	}
	if err != nil {
		return Value{}, m.fault(pos, FaultBadCast, "%v", err)
	}
	var out Value
	switch lc.K {
	case VInt:
		out, err = m.applyIntBinary(op, lc, rc, ct, pos)
	case VFloat:
		out, err = m.applyFloatBinary(op, lc, rc, ct, pos)
	case VComplex:
		out, err = m.applyComplexBinary(op, lc, rc, ct, pos)
	default:
		return Value{}, m.fault(pos, FaultUnsupported, "binary %s on %s", op, lc.T)
	}
	if err != nil {
		return Value{}, err
	}
	if rt != nil && rt.IsArithmetic() {
		if rounded(out, rt) {
			out.T = rt
			return out, nil
		}
		return Convert(out, rt)
	}
	return out, nil
}

func (m *Machine) applyIntBinary(op minic.Kind, l, r Value, t *minic.Type, pos minic.Pos) (Value, error) {
	m.Counters.IntOps++
	a, b := l.I, r.I
	switch op {
	case minic.Plus:
		return truncInt(a+b, t), nil
	case minic.Minus:
		return truncInt(a-b, t), nil
	case minic.Star:
		return truncInt(a*b, t), nil
	case minic.Slash:
		if b == 0 {
			return Value{}, m.fault(pos, FaultDivZero, "integer division by zero")
		}
		return truncInt(a/b, t), nil
	case minic.Percent:
		if b == 0 {
			return Value{}, m.fault(pos, FaultDivZero, "integer modulo by zero")
		}
		return truncInt(a%b, t), nil
	case minic.Shl:
		return truncInt(a<<uint(b&63), t), nil
	case minic.Shr:
		if t.Unsigned {
			return truncInt(int64(uint64(a)>>uint(b&63)), t), nil
		}
		return truncInt(a>>uint(b&63), t), nil
	case minic.Amp:
		return truncInt(a&b, t), nil
	case minic.Pipe:
		return truncInt(a|b, t), nil
	case minic.Caret:
		return truncInt(a^b, t), nil
	default:
		return Value{}, m.fault(pos, FaultUnsupported, "int op %s", op)
	}
}

func (m *Machine) applyFloatBinary(op minic.Kind, l, r Value, t *minic.Type, pos minic.Pos) (Value, error) {
	a, b := l.f64(), r.f64()
	switch op {
	case minic.Plus:
		m.Counters.FloatOps++
		return FloatValue(a+b, t), nil
	case minic.Minus:
		m.Counters.FloatOps++
		return FloatValue(a-b, t), nil
	case minic.Star:
		m.Counters.FloatOps++
		return FloatValue(a*b, t), nil
	case minic.Slash:
		m.Counters.FloatDivs++
		return FloatValue(a/b, t), nil
	default:
		return Value{}, m.fault(pos, FaultUnsupported, "float op %s", op)
	}
}

func (m *Machine) applyComplexBinary(op minic.Kind, l, r Value, t *minic.Type, pos minic.Pos) (Value, error) {
	a, b := l.c128(), r.c128()
	switch op {
	case minic.Plus:
		m.Counters.FloatOps += 2
		return ComplexValue(a+b, t), nil
	case minic.Minus:
		m.Counters.FloatOps += 2
		return ComplexValue(a-b, t), nil
	case minic.Star:
		m.Counters.FloatOps += 6
		return ComplexValue(a*b, t), nil
	case minic.Slash:
		m.Counters.FloatOps += 6
		m.Counters.FloatDivs += 2
		return ComplexValue(a/b, t), nil
	default:
		return Value{}, m.fault(pos, FaultUnsupported, "complex op %s", op)
	}
}

func (m *Machine) applyComparison(op minic.Kind, l, r Value, pos minic.Pos) (Value, error) {
	m.Counters.IntOps++
	// Complex values compare only with == and !=.
	if l.K == VComplex || r.K == VComplex {
		eq := l.Complex() == r.Complex()
		switch op {
		case minic.EqEq:
			return boolValue(eq), nil
		case minic.NotEq:
			return boolValue(!eq), nil
		default:
			return Value{}, m.fault(pos, FaultUnsupported, "ordered comparison of complex values")
		}
	}
	if l.K == VFloat || r.K == VFloat {
		a, b := l.Float(), r.Float()
		return boolValue(compareOrd(op, a < b, a > b, a == b)), nil
	}
	a, b := l.Int(), r.Int()
	return boolValue(compareOrd(op, a < b, a > b, a == b)), nil
}

func compareOrd(op minic.Kind, lt, gt, eq bool) bool {
	switch op {
	case minic.Lt:
		return lt
	case minic.Gt:
		return gt
	case minic.Le:
		return lt || eq
	case minic.Ge:
		return gt || eq
	case minic.EqEq:
		return eq
	case minic.NotEq:
		return !eq
	default:
		return false
	}
}

func boolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

func (m *Machine) applyPointerBinary(op minic.Kind, l, r Value, rt *minic.Type, pos minic.Pos) (Value, error) {
	m.Counters.IntOps++
	switch op {
	case minic.Plus:
		if l.K == VPointer {
			return PointerValue(PointerAdd(l.Ptr(), r.Int()), l.T), nil
		}
		return PointerValue(PointerAdd(r.Ptr(), l.Int()), r.T), nil
	case minic.Minus:
		if l.K == VPointer && r.K == VPointer {
			d, err := m.pointerDiff(l.Ptr(), r.Ptr(), pos)
			if err != nil {
				return Value{}, err
			}
			return LongValue(d), nil
		}
		if l.K == VPointer {
			return PointerValue(PointerAdd(l.Ptr(), -r.Int()), l.T), nil
		}
	case minic.EqEq, minic.NotEq:
		eq := pointerEq(l, r)
		if op == minic.NotEq {
			return boolValue(!eq), nil
		}
		return boolValue(eq), nil
	case minic.Lt, minic.Gt, minic.Le, minic.Ge:
		if l.K == VPointer && r.K == VPointer {
			if l.A != r.A {
				return Value{}, m.fault(pos, FaultBadPointerOp,
					"ordered comparison of pointers into different allocations")
			}
			a, b := l.I, r.I
			return boolValue(compareOrd(op, a < b, a > b, a == b)), nil
		}
	}
	return Value{}, m.fault(pos, FaultBadPointerOp, "pointer op %s with %s and %s", op, l.T, r.T)
}

func pointerEq(l, r Value) bool {
	lp, rp := Pointer{}, Pointer{}
	if l.K == VPointer {
		lp = l.Ptr()
	}
	if r.K == VPointer {
		rp = r.Ptr()
	}
	return lp.Alloc == rp.Alloc && (lp.Alloc == nil || lp.Off == rp.Off)
}

func (m *Machine) evalAssign(fr *frame, x *minic.AssignExpr) (Value, error) {
	p, err := m.lvalueAddr(fr, x.L)
	if err != nil {
		return Value{}, err
	}
	lt := x.L.ResultType()
	rv, err := m.evalExpr(fr, x.R)
	if err != nil {
		return Value{}, err
	}
	var nv Value
	if x.Op == minic.Assign {
		nv = rv
	} else {
		old, err := m.LoadScalar(p, x.Pos)
		if err != nil {
			return Value{}, err
		}
		binOp := compoundOp(x.Op)
		nv, err = m.applyBinary(binOp, old, rv, lt.Decay(), x.Pos)
		if err != nil {
			return Value{}, err
		}
	}
	if lt.Kind == minic.TStruct {
		if err := m.StoreObject(p, lt, nv, x.Pos); err != nil {
			return Value{}, err
		}
	} else {
		if err := m.StoreScalar(p, nv, x.Pos); err != nil {
			return Value{}, err
		}
		nv = p.Alloc.Cells[p.Off]
	}
	if m.Observe != nil {
		if id, ok := x.L.(*minic.IdentExpr); ok && nv.K != VStruct {
			m.Observe(id.Name, nv)
		}
	}
	return nv, nil
}

func compoundOp(k minic.Kind) minic.Kind {
	switch k {
	case minic.PlusAssign:
		return minic.Plus
	case minic.MinusAssign:
		return minic.Minus
	case minic.StarAssign:
		return minic.Star
	case minic.SlashAssign:
		return minic.Slash
	case minic.PercentAssign:
		return minic.Percent
	case minic.AmpAssign:
		return minic.Amp
	case minic.PipeAssign:
		return minic.Pipe
	case minic.CaretAssign:
		return minic.Caret
	case minic.ShlAssign:
		return minic.Shl
	case minic.ShrAssign:
		return minic.Shr
	default:
		return k
	}
}

func (m *Machine) evalCall(fr *frame, x *minic.CallExpr) (Value, error) {
	if x.Builtin != "" {
		return m.callBuiltin(fr, x)
	}
	id, ok := x.Fun.(*minic.IdentExpr)
	if !ok || id.Func == nil {
		return Value{}, m.fault(x.Pos, FaultUnsupported, "indirect calls are not supported")
	}
	fn := m.funcs[id.Func.Name]
	if fn == nil || fn.Body == nil {
		return Value{}, m.fault(x.Pos, FaultUnsupported, "call to undefined function %q", id.Func.Name)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := m.evalExpr(fr, a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return m.Call(fn, args)
}
