// Package interp is a bounds-checked tree-walking interpreter for MiniC.
// It plays two roles in FACC: it executes user FFT code during IO-based
// generate-and-test (with AddressSanitizer-style fault detection standing
// in for the paper's ASan runs), and it counts executed operations to feed
// the platform performance models used by the evaluation harness.
package interp

import (
	"fmt"
	"math"

	"facc/internal/minic"
)

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	VVoid ValueKind = iota
	VInt
	VFloat
	VComplex
	VPointer
	VStruct
)

// Value is a runtime MiniC value. It is 48 bytes, so the evaluator's
// by-value results stay cheap register-sized copies. K and T say what it
// is; the payload words mean:
//
//	VInt      I is the integer.
//	VFloat    I holds the float64 bits.
//	VComplex  I and Y hold the float64 bits of the real and imaginary parts.
//	VPointer  A is the allocation (nil for NULL), I the cell offset and E
//	          the element type the pointer views memory as (see Ptr).
//	VStruct   A is a private allocation whose cells are the flattened
//	          scalar leaves in layout order (see leaves).
type Value struct {
	T *minic.Type
	A *Alloc
	E *minic.Type
	I int64
	Y uint64
	K ValueKind
}

// IntValue returns an int-typed value.
func IntValue(i int64) Value { return Value{K: VInt, T: minic.Int, I: i} }

// LongValue returns a long-typed value.
func LongValue(i int64) Value { return Value{K: VInt, T: minic.Long, I: i} }

// FloatValue returns a value of the given real floating type. float values
// are rounded through float32 to model single-precision hardware.
func FloatValue(f float64, t *minic.Type) Value {
	if t.Kind == minic.TFloat {
		f = float64(float32(f))
	}
	return Value{K: VFloat, T: t, I: int64(math.Float64bits(f))}
}

// ComplexValue returns a complex value of the given complex type, rounding
// through complex64 for float _Complex.
func ComplexValue(c complex128, t *minic.Type) Value {
	if t.Kind == minic.TComplexFloat {
		c = complex128(complex64(c))
	}
	return Value{K: VComplex, T: t,
		I: int64(math.Float64bits(real(c))), Y: math.Float64bits(imag(c))}
}

// PointerValue wraps a pointer.
func PointerValue(p Pointer, t *minic.Type) Value {
	return Value{K: VPointer, T: t, A: p.Alloc, I: int64(p.Off), E: p.Elem}
}

// structValue returns a struct of type t holding a copy of leaves.
func structValue(t *minic.Type, leaves []Value) Value {
	a := newCells(len(leaves))
	copy(a.Cells, leaves)
	return Value{K: VStruct, T: t, A: a}
}

// Ptr returns the pointer a VPointer value holds.
func (v Value) Ptr() Pointer { return Pointer{Alloc: v.A, Off: int(v.I), Elem: v.E} }

// f64 is the payload of a VFloat value.
func (v Value) f64() float64 { return math.Float64frombits(uint64(v.I)) }

// c128 is the payload of a VComplex value.
func (v Value) c128() complex128 {
	return complex(math.Float64frombits(uint64(v.I)), math.Float64frombits(v.Y))
}

// leaves returns the flattened scalar leaves of a VStruct value.
func (v Value) leaves() []Value { return v.A.Cells }

// VoidValue is the result of void expressions.
func VoidValue() Value { return Value{K: VVoid, T: minic.Void} }

// IsZero reports whether the value is zero/null (for conditions).
func (v Value) IsZero() bool {
	switch v.K {
	case VInt:
		return v.I == 0
	case VFloat:
		return v.f64() == 0
	case VComplex:
		return v.c128() == 0
	case VPointer:
		return v.A == nil
	default:
		return true
	}
}

// Float returns the value as a float64 (integers widen).
func (v Value) Float() float64 {
	switch v.K {
	case VFloat:
		return v.f64()
	case VInt:
		return float64(v.I)
	case VComplex:
		return real(v.c128())
	default:
		return 0
	}
}

// Complex returns the value as a complex128.
func (v Value) Complex() complex128 {
	switch v.K {
	case VComplex:
		return v.c128()
	case VFloat:
		return complex(v.f64(), 0)
	case VInt:
		return complex(float64(v.I), 0)
	default:
		return 0
	}
}

// Int returns the value as an int64 (floats truncate toward zero).
func (v Value) Int() int64 {
	switch v.K {
	case VInt:
		return v.I
	case VFloat:
		return int64(v.f64())
	case VComplex:
		return int64(real(v.c128()))
	default:
		return 0
	}
}

func (v Value) String() string {
	switch v.K {
	case VVoid:
		return "void"
	case VInt:
		return fmt.Sprintf("%d", v.I)
	case VFloat:
		return fmt.Sprintf("%g", v.f64())
	case VComplex:
		c := v.c128()
		return fmt.Sprintf("(%g%+gi)", real(c), imag(c))
	case VPointer:
		return v.Ptr().String()
	case VStruct:
		return fmt.Sprintf("struct{%d leaves}", len(v.leaves()))
	default:
		return "?"
	}
}

// Convert coerces v to type t following C conversion rules. Pointer/int
// conversions are allowed; struct conversions require identical types.
func Convert(v Value, t *minic.Type) (Value, error) {
	if rounded(v, t) {
		v.T = t
		return v, nil
	}
	switch t.Kind {
	case minic.TVoid:
		return VoidValue(), nil
	case minic.TChar, minic.TInt, minic.TLong:
		var i int64
		switch v.K {
		case VInt, VFloat, VComplex:
			i = v.Int()
		case VPointer:
			i = v.Ptr().AsInt()
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.T, t)
		}
		return truncInt(i, t), nil
	case minic.TFloat, minic.TDouble:
		switch v.K {
		case VInt, VFloat, VComplex:
			return FloatValue(v.Float(), t), nil
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.T, t)
		}
	case minic.TComplexFloat, minic.TComplexDouble:
		switch v.K {
		case VInt, VFloat, VComplex:
			return ComplexValue(v.Complex(), t), nil
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.T, t)
		}
	case minic.TPointer:
		switch v.K {
		case VPointer:
			out := v
			out.T = t
			// Retyping a pointer changes its view; void* keeps the
			// original view so round-trips through void* are lossless.
			if t.Elem.Kind != minic.TVoid {
				out.E = t.Elem
			}
			return out, nil
		case VInt:
			if v.I == 0 {
				return Value{K: VPointer, T: t}, nil
			}
			return Value{}, fmt.Errorf("cannot convert non-zero integer %d to pointer", v.I)
		default:
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.T, t)
		}
	case minic.TStruct:
		if v.K != VStruct {
			return Value{}, fmt.Errorf("cannot convert %s to %s", v.T, t)
		}
		out := v
		out.T = t
		return out, nil
	default:
		return Value{}, fmt.Errorf("cannot convert %s to %s", v.T, t)
	}
}

// rounded reports whether v is a floating value of t's kind. FloatValue
// and ComplexValue already rounded it for t, so converting it to t only
// replaces its type.
func rounded(v Value, t *minic.Type) bool {
	return (v.K == VFloat || v.K == VComplex) && v.T.Kind == t.Kind
}

// truncInt narrows an integer to the width/signedness of t.
func truncInt(i int64, t *minic.Type) Value {
	switch t.Kind {
	case minic.TChar:
		if t.Unsigned {
			i = int64(uint8(i))
		} else {
			i = int64(int8(i))
		}
	case minic.TInt:
		if t.Unsigned {
			i = int64(uint32(i))
		} else {
			i = int64(int32(i))
		}
	}
	return Value{K: VInt, T: t, I: i}
}

// zeroValue builds the zero value for a scalar/pointer leaf type.
func zeroValue(t *minic.Type) Value {
	switch {
	case t.IsInteger():
		return Value{K: VInt, T: t}
	case t.IsFloat():
		return Value{K: VFloat, T: t}
	case t.IsComplex():
		return Value{K: VComplex, T: t}
	case t.Kind == minic.TPointer:
		return Value{K: VPointer, T: t}
	default:
		return Value{K: VVoid, T: t}
	}
}

// almostEqual compares floats with combined absolute/relative tolerance.
func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
