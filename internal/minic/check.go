package minic

import (
	"fmt"
)

// CheckError is a semantic error with a source position.
type CheckError struct {
	Pos Pos
	Msg string
}

func (e *CheckError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Builtin describes a recognized library function.
type Builtin struct {
	Name     string
	Ret      *Type
	Params   []*Type
	Variadic bool
}

// Builtins is the MiniC library surface: the libm/libc subset the FFT
// benchmark corpus uses. The interpreter implements each of these.
var Builtins = map[string]*Builtin{}

func reg(name string, ret *Type, params ...*Type) {
	Builtins[name] = &Builtin{Name: name, Ret: ret, Params: params}
}

func init() {
	d, f := Double, Float
	for _, n := range []string{"sin", "cos", "tan", "asin", "acos", "atan",
		"sqrt", "exp", "log", "log2", "log10", "fabs", "floor", "ceil",
		"round", "trunc", "cbrt", "sinh", "cosh", "tanh"} {
		reg(n, d, d)
		reg(n+"f", f, f)
	}
	reg("fabsf", f, f)
	for _, n := range []string{"pow", "atan2", "fmod", "hypot", "fmin", "fmax"} {
		reg(n, d, d, d)
		reg(n+"f", f, f, f)
	}
	reg("ldexp", d, d, Int)
	reg("abs", Int, Int)
	reg("labs", Long, Long)

	cd, cf := ComplexDouble, ComplexFloat
	reg("cexp", cd, cd)
	reg("cexpf", cf, cf)
	reg("csqrt", cd, cd)
	reg("csqrtf", cf, cf)
	reg("conj", cd, cd)
	reg("conjf", cf, cf)
	reg("cpow", cd, cd, cd)
	reg("creal", d, cd)
	reg("crealf", f, cf)
	reg("cimag", d, cd)
	reg("cimagf", f, cf)
	reg("cabs", d, cd)
	reg("cabsf", f, cf)
	reg("carg", d, cd)
	reg("cargf", f, cf)

	vp := PointerTo(Void)
	reg("malloc", vp, Long)
	reg("calloc", vp, Long, Long)
	reg("realloc", vp, vp, Long)
	reg("free", Void, vp)
	reg("memcpy", vp, vp, vp, Long)
	reg("memmove", vp, vp, vp, Long)
	reg("memset", vp, vp, Int, Long)
	reg("exit", Void, Int)
	reg("assert", Void, Int)

	Builtins["printf"] = &Builtin{Name: "printf", Ret: Int,
		Params: []*Type{PointerTo(Char)}, Variadic: true}
	Builtins["fprintf"] = &Builtin{Name: "fprintf", Ret: Int,
		Params: []*Type{vp, PointerTo(Char)}, Variadic: true}
	Builtins["puts"] = &Builtin{Name: "puts", Ret: Int, Params: []*Type{PointerTo(Char)}}
	Builtins["putchar"] = &Builtin{Name: "putchar", Ret: Int, Params: []*Type{Int}}
	// stderr/stdout appear as opaque identifiers in fprintf calls.
}

// checker resolves names and computes expression types.
type checker struct {
	file   *File
	funcs  map[string]*FuncDecl
	scopes []map[string]*VarDecl
	cur    *FuncDecl
}

// Check resolves identifiers and types every expression in f. It must be
// called (and succeed) before the interpreter or any analysis runs.
func Check(f *File) error {
	c := &checker{file: f, funcs: map[string]*FuncDecl{}}
	f.NumGlobals = 0
	for _, fn := range f.Funcs {
		prev, ok := c.funcs[fn.Name]
		if ok && prev.Body != nil && fn.Body != nil {
			return errAt(fn.Pos, "redefinition of function %q (first defined at %s)",
				fn.Name, prev.Pos)
		}
		if !ok || prev.Body == nil {
			c.funcs[fn.Name] = fn
		}
	}
	c.push()
	defer c.pop()
	for _, g := range f.Globals {
		if err := c.checkVarDecl(g); err != nil {
			return err
		}
		c.define(g)
	}
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]*VarDecl{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// define brings v into scope and assigns its storage slot. Slots are
// never reused within a function, so shadowed and sibling-scope locals
// stay distinct; re-checking a file assigns the same slots again.
func (c *checker) define(v *VarDecl) {
	c.scopes[len(c.scopes)-1][v.Name] = v
	v.Escapes = false
	if v.IsStatic() {
		v.Slot = c.file.NumGlobals
		c.file.NumGlobals++
	} else {
		v.Slot = c.cur.NumSlots
		c.cur.NumSlots++
	}
}

func (c *checker) lookup(name string) *VarDecl {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

func errAt(pos Pos, format string, args ...any) error {
	return &CheckError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	c.cur = fn
	fn.NumSlots = 0
	c.push()
	defer func() { c.pop(); c.cur = nil }()
	for _, prm := range fn.Params {
		if prm.Type.Kind == TArray {
			prm.Type = PointerTo(prm.Type.Elem)
		}
		c.define(prm)
	}
	return c.checkStmt(fn.Body)
}

func (c *checker) checkVarDecl(v *VarDecl) error {
	if v.Type.Kind == TArray && v.Type.ArrayLenExpr != nil {
		if err := c.checkExpr(v.Type.ArrayLenExpr); err != nil {
			return err
		}
		if !v.Type.ArrayLenExpr.ResultType().IsInteger() {
			return errAt(v.Pos, "array length of %q must be an integer", v.Name)
		}
	}
	if v.Init == nil {
		return nil
	}
	if il, ok := v.Init.(*InitListExpr); ok {
		return c.checkInitList(il, v.Type)
	}
	if err := c.checkExpr(v.Init); err != nil {
		return err
	}
	it := v.Init.ResultType().Decay()
	if !it.ConvertibleTo(v.Type.Decay()) {
		return errAt(v.Pos, "cannot initialize %s (type %s) with value of type %s",
			v.Name, v.Type, it)
	}
	return nil
}

func (c *checker) checkInitList(il *InitListExpr, t *Type) error {
	switch t.Kind {
	case TArray:
		if t.ArrayLen >= 0 && len(il.Items) > t.ArrayLen {
			return errAt(il.Pos, "too many initializers for %s", t)
		}
		if t.ArrayLen < 0 && t.ArrayLenExpr == nil {
			// Complete the array from the initializer.
			t.ArrayLen = len(il.Items)
		}
		for _, item := range il.Items {
			if sub, ok := item.(*InitListExpr); ok {
				if err := c.checkInitList(sub, t.Elem); err != nil {
					return err
				}
				continue
			}
			if err := c.checkExpr(item); err != nil {
				return err
			}
			if !item.ResultType().Decay().ConvertibleTo(t.Elem) {
				return errAt(item.NodePos(), "cannot initialize element of %s with %s",
					t, item.ResultType())
			}
		}
		il.Type = t
		return nil
	case TStruct:
		if len(il.Items) > len(t.Fields) {
			return errAt(il.Pos, "too many initializers for %s", t)
		}
		for i, item := range il.Items {
			ft := t.Fields[i].Type
			if sub, ok := item.(*InitListExpr); ok {
				if err := c.checkInitList(sub, ft); err != nil {
					return err
				}
				continue
			}
			if err := c.checkExpr(item); err != nil {
				return err
			}
			if !item.ResultType().Decay().ConvertibleTo(ft) {
				return errAt(item.NodePos(), "cannot initialize field %s with %s",
					t.Fields[i].Name, item.ResultType())
			}
		}
		il.Type = t
		return nil
	default:
		if len(il.Items) != 1 {
			return errAt(il.Pos, "scalar initializer for %s must have one element", t)
		}
		if err := c.checkExpr(il.Items[0]); err != nil {
			return err
		}
		il.Type = t
		return nil
	}
}

// ---- Statements ----

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case nil:
		return nil
	case *ExprStmt:
		return c.checkExpr(st.X)
	case *DeclStmt:
		for _, d := range st.Decls {
			if err := c.checkVarDecl(d); err != nil {
				return err
			}
			c.define(d)
		}
		return nil
	case *BlockStmt:
		c.push()
		defer c.pop()
		for _, sub := range st.List {
			if err := c.checkStmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *IfStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		if !st.Cond.ResultType().Decay().IsScalar() {
			return errAt(st.Pos, "if condition must be scalar, got %s", st.Cond.ResultType())
		}
		if err := c.checkStmt(st.Then); err != nil {
			return err
		}
		return c.checkStmt(st.Else)
	case *ForStmt:
		c.push()
		defer c.pop()
		if err := c.checkStmt(st.Init); err != nil {
			return err
		}
		if st.Cond != nil {
			if err := c.checkExpr(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := c.checkExpr(st.Post); err != nil {
				return err
			}
		}
		return c.checkStmt(st.Body)
	case *WhileStmt:
		if err := c.checkExpr(st.Cond); err != nil {
			return err
		}
		return c.checkStmt(st.Body)
	case *SwitchStmt:
		if err := c.checkExpr(st.Tag); err != nil {
			return err
		}
		if !st.Tag.ResultType().IsInteger() {
			return errAt(st.Pos, "switch tag must be an integer, got %s", st.Tag.ResultType())
		}
		for _, cc := range st.Cases {
			if cc.Value != nil {
				if err := c.checkExpr(cc.Value); err != nil {
					return err
				}
			}
			c.push()
			for _, sub := range cc.Body {
				if err := c.checkStmt(sub); err != nil {
					c.pop()
					return err
				}
			}
			c.pop()
		}
		return nil
	case *BreakStmt, *ContinueStmt:
		return nil
	case *ReturnStmt:
		ret := c.cur.Type.Ret
		if st.Value == nil {
			if ret.Kind != TVoid {
				return errAt(st.Pos, "return without value in function returning %s", ret)
			}
			return nil
		}
		if err := c.checkExpr(st.Value); err != nil {
			return err
		}
		if ret.Kind == TVoid {
			return errAt(st.Pos, "return with value in void function")
		}
		if !st.Value.ResultType().Decay().ConvertibleTo(ret) {
			return errAt(st.Pos, "cannot return %s from function returning %s",
				st.Value.ResultType(), ret)
		}
		return nil
	default:
		return errAt(s.NodePos(), "unhandled statement %T", s)
	}
}

// ---- Expressions ----

func (c *checker) checkExpr(e Expr) error {
	switch x := e.(type) {
	case *IntLitExpr:
		if x.Value > 1<<31-1 || x.Value < -(1<<31) {
			x.Type = Long
		} else {
			x.Type = Int
		}
		return nil
	case *FloatLitExpr:
		if x.Float32 {
			x.Type = Float
		} else {
			x.Type = Double
		}
		return nil
	case *StringLitExpr:
		x.Type = PointerTo(Char)
		return nil
	case *ImaginaryLitExpr:
		x.Type = ComplexFloat
		return nil
	case *IdentExpr:
		if v := c.lookup(x.Name); v != nil {
			x.Def = v
			x.Type = v.Type
			return nil
		}
		if fn, ok := c.funcs[x.Name]; ok {
			x.Func = fn
			x.Type = fn.Type
			return nil
		}
		if b, ok := Builtins[x.Name]; ok {
			ft := &Type{Kind: TFunc, Ret: b.Ret, Variadic: b.Variadic}
			for _, pt := range b.Params {
				ft.Params = append(ft.Params, Param{Type: pt})
			}
			x.Type = ft
			return nil
		}
		if x.Name == "stderr" || x.Name == "stdout" || x.Name == "stdin" {
			x.Type = PointerTo(Void)
			return nil
		}
		return errAt(x.Pos, "undeclared identifier %q", x.Name)
	case *UnaryExpr:
		return c.checkUnary(x)
	case *BinaryExpr:
		return c.checkBinary(x)
	case *AssignExpr:
		return c.checkAssign(x)
	case *CondExpr:
		if err := c.checkExpr(x.Cond); err != nil {
			return err
		}
		if err := c.checkExpr(x.Then); err != nil {
			return err
		}
		if err := c.checkExpr(x.Else); err != nil {
			return err
		}
		tt, et := x.Then.ResultType().Decay(), x.Else.ResultType().Decay()
		if tt.IsArithmetic() && et.IsArithmetic() {
			x.Type = UsualArith(tt, et)
		} else {
			x.Type = tt
		}
		return nil
	case *CallExpr:
		return c.checkCall(x)
	case *IndexExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		if err := c.checkExpr(x.Index); err != nil {
			return err
		}
		xt := x.X.ResultType().Decay()
		if xt.Kind != TPointer {
			return errAt(x.Pos, "cannot index value of type %s", x.X.ResultType())
		}
		if !x.Index.ResultType().IsInteger() {
			return errAt(x.Pos, "array index must be an integer, got %s", x.Index.ResultType())
		}
		if xt.Elem.Kind == TVoid {
			return errAt(x.Pos, "cannot index void*")
		}
		x.Type = xt.Elem
		return nil
	case *MemberExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		st := x.X.ResultType()
		if x.Arrow {
			st = st.Decay()
			if st.Kind != TPointer {
				return errAt(x.Pos, "-> on non-pointer type %s", x.X.ResultType())
			}
			st = st.Elem
		}
		if st.Kind != TStruct {
			return errAt(x.Pos, "member access on non-struct type %s", st)
		}
		idx := st.FieldIndex(x.Name)
		if idx < 0 {
			return errAt(x.Pos, "%s has no field %q", st, x.Name)
		}
		x.FieldIndex = idx
		x.Type = st.Fields[idx].Type
		return nil
	case *CastExpr:
		if err := c.checkExpr(x.X); err != nil {
			return err
		}
		x.Type = x.To
		return nil
	case *SizeofExpr:
		if x.X != nil {
			if err := c.checkExpr(x.X); err != nil {
				return err
			}
		}
		x.Type = Long
		return nil
	case *CommaExpr:
		if err := c.checkExpr(x.L); err != nil {
			return err
		}
		if err := c.checkExpr(x.R); err != nil {
			return err
		}
		x.Type = x.R.ResultType()
		return nil
	case *InitListExpr:
		return errAt(x.Pos, "initializer list outside declaration")
	default:
		return errAt(e.NodePos(), "unhandled expression %T", e)
	}
}

// isLvalue reports whether e designates a storage location.
func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *IdentExpr:
		return x.Def != nil
	case *UnaryExpr:
		return x.Op == Star
	case *IndexExpr, *MemberExpr:
		return true
	default:
		return false
	}
}

func (c *checker) checkUnary(x *UnaryExpr) error {
	if err := c.checkExpr(x.X); err != nil {
		return err
	}
	xt := x.X.ResultType()
	switch x.Op {
	case Minus, Plus:
		if !xt.IsArithmetic() {
			return errAt(x.Pos, "unary %s on non-arithmetic type %s", x.Op, xt)
		}
		if xt.IsInteger() && rank(xt) < rank(Int) {
			x.Type = Int
		} else {
			x.Type = xt
		}
	case Not:
		if !xt.Decay().IsScalar() {
			return errAt(x.Pos, "! on non-scalar type %s", xt)
		}
		x.Type = Int
	case Tilde:
		if !xt.IsInteger() {
			return errAt(x.Pos, "~ on non-integer type %s", xt)
		}
		x.Type = xt
	case Star:
		dt := xt.Decay()
		if dt.Kind != TPointer {
			return errAt(x.Pos, "cannot dereference type %s", xt)
		}
		if dt.Elem.Kind == TVoid {
			return errAt(x.Pos, "cannot dereference void*")
		}
		x.Type = dt.Elem
	case Amp:
		if !isLvalue(x.X) {
			return errAt(x.Pos, "cannot take address of non-lvalue")
		}
		if id, ok := x.X.(*IdentExpr); ok {
			id.Def.Escapes = true
		}
		x.Type = PointerTo(xt)
	case PlusPlus, MinusMinus:
		if !isLvalue(x.X) {
			return errAt(x.Pos, "%s requires an lvalue", x.Op)
		}
		if !xt.IsScalar() {
			return errAt(x.Pos, "%s on non-scalar type %s", x.Op, xt)
		}
		x.Type = xt
	default:
		return errAt(x.Pos, "unhandled unary operator %s", x.Op)
	}
	return nil
}

func (c *checker) checkBinary(x *BinaryExpr) error {
	if err := c.checkExpr(x.L); err != nil {
		return err
	}
	if err := c.checkExpr(x.R); err != nil {
		return err
	}
	lt, rt := x.L.ResultType().Decay(), x.R.ResultType().Decay()
	switch x.Op {
	case Plus, Minus:
		if lt.Kind == TPointer && rt.IsInteger() {
			x.Type = lt
			return nil
		}
		if x.Op == Plus && lt.IsInteger() && rt.Kind == TPointer {
			x.Type = rt
			return nil
		}
		if x.Op == Minus && lt.Kind == TPointer && rt.Kind == TPointer {
			x.Type = Long
			return nil
		}
		fallthrough
	case Star, Slash:
		if !lt.IsArithmetic() || !rt.IsArithmetic() {
			return errAt(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
		x.Type = UsualArith(lt, rt)
	case Percent, Shl, Shr, Amp, Pipe, Caret:
		if !lt.IsInteger() || !rt.IsInteger() {
			return errAt(x.Pos, "invalid operands to %s: %s and %s (integers required)", x.Op, lt, rt)
		}
		x.Type = UsualArith(lt, rt)
	case Lt, Gt, Le, Ge:
		if !(lt.IsArithmetic() && rt.IsArithmetic() && !lt.IsComplex() && !rt.IsComplex()) &&
			!(lt.Kind == TPointer && rt.Kind == TPointer) &&
			!(lt.Kind == TPointer && rt.IsInteger()) &&
			!(lt.IsInteger() && rt.Kind == TPointer) {
			return errAt(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
		x.Type = Int
	case EqEq, NotEq:
		ok := (lt.IsArithmetic() && rt.IsArithmetic()) ||
			(lt.Kind == TPointer && (rt.Kind == TPointer || rt.IsInteger())) ||
			(lt.IsInteger() && rt.Kind == TPointer)
		if !ok {
			return errAt(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
		x.Type = Int
	case AndAnd, OrOr:
		if !lt.IsScalar() || !rt.IsScalar() {
			return errAt(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
		x.Type = Int
	default:
		return errAt(x.Pos, "unhandled binary operator %s", x.Op)
	}
	return nil
}

func (c *checker) checkAssign(x *AssignExpr) error {
	if err := c.checkExpr(x.L); err != nil {
		return err
	}
	if err := c.checkExpr(x.R); err != nil {
		return err
	}
	if !isLvalue(x.L) {
		return errAt(x.Pos, "assignment target is not an lvalue")
	}
	lt := x.L.ResultType()
	rt := x.R.ResultType().Decay()
	if x.Op == Assign {
		if lt.Kind == TStruct {
			if !rt.Same(lt) {
				return errAt(x.Pos, "cannot assign %s to %s", rt, lt)
			}
		} else if !rt.ConvertibleTo(lt.Decay()) {
			return errAt(x.Pos, "cannot assign %s to %s", rt, lt)
		}
	} else {
		// Compound assignment: pointer += int is allowed, otherwise both
		// sides must be arithmetic (integer-only for %, <<, &c.).
		intOnly := x.Op == PercentAssign || x.Op == ShlAssign || x.Op == ShrAssign ||
			x.Op == AmpAssign || x.Op == PipeAssign || x.Op == CaretAssign
		if lt.Decay().Kind == TPointer {
			if !(x.Op == PlusAssign || x.Op == MinusAssign) || !rt.IsInteger() {
				return errAt(x.Pos, "invalid compound assignment to pointer")
			}
		} else if intOnly {
			if !lt.IsInteger() || !rt.IsInteger() {
				return errAt(x.Pos, "%s requires integer operands", x.Op)
			}
		} else if !lt.IsArithmetic() || !rt.IsArithmetic() {
			return errAt(x.Pos, "invalid operands to %s: %s and %s", x.Op, lt, rt)
		}
	}
	x.Type = lt
	return nil
}

func (c *checker) checkCall(x *CallExpr) error {
	id, _ := x.Fun.(*IdentExpr)
	// Builtins are resolved by name unless shadowed by a local or a
	// user-defined function.
	if id != nil {
		if c.lookup(id.Name) == nil {
			if _, userFn := c.funcs[id.Name]; !userFn {
				if b, ok := Builtins[id.Name]; ok {
					x.Builtin = id.Name
					for i, a := range x.Args {
						if err := c.checkExpr(a); err != nil {
							return err
						}
						if !b.Variadic && i < len(b.Params) {
							at := a.ResultType().Decay()
							if !at.ConvertibleTo(b.Params[i]) {
								return errAt(a.NodePos(),
									"argument %d to %s: cannot convert %s to %s",
									i+1, b.Name, at, b.Params[i])
							}
						}
					}
					if !b.Variadic && len(x.Args) != len(b.Params) {
						return errAt(x.Pos, "%s expects %d arguments, got %d",
							b.Name, len(b.Params), len(x.Args))
					}
					x.Type = b.Ret
					return nil
				}
			}
		}
	}
	if err := c.checkExpr(x.Fun); err != nil {
		return err
	}
	ft := x.Fun.ResultType()
	if ft.Kind == TPointer && ft.Elem != nil && ft.Elem.Kind == TFunc {
		ft = ft.Elem
	}
	if ft.Kind != TFunc {
		return errAt(x.Pos, "called object is not a function (type %s)", ft)
	}
	if !ft.Variadic && len(x.Args) != len(ft.Params) {
		name := "function"
		if id != nil {
			name = id.Name
		}
		return errAt(x.Pos, "%s expects %d arguments, got %d", name, len(ft.Params), len(x.Args))
	}
	for i, a := range x.Args {
		if err := c.checkExpr(a); err != nil {
			return err
		}
		if i < len(ft.Params) {
			at := a.ResultType().Decay()
			pt := ft.Params[i].Type
			if pt.Kind == TStruct {
				if !at.Same(pt) {
					return errAt(a.NodePos(), "argument %d: cannot pass %s as %s", i+1, at, pt)
				}
			} else if !at.ConvertibleTo(pt.Decay()) {
				return errAt(a.NodePos(), "argument %d: cannot convert %s to %s", i+1, at, pt)
			}
		}
	}
	x.Type = ft.Ret
	return nil
}
