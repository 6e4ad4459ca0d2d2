package minic

import (
	"fmt"
	"strings"
	"testing"
)

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	_, err := ParseAndCheck("t.c", src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

func TestCheckUndeclared(t *testing.T) {
	checkErr(t, "int f(void) { return x; }", "undeclared identifier")
}

func TestCheckTypesOfLiterals(t *testing.T) {
	f := mustCheck(t, `
int a = 1;
long b = 5000000000;
double c = 1.5;
float d = 1.5f;
`)
	wants := []TypeKind{TInt, TLong, TDouble, TFloat}
	for i, g := range f.Globals {
		if g.Init.ResultType().Kind != wants[i] {
			t.Errorf("%s: literal type = %s", g.Name, g.Init.ResultType())
		}
	}
}

func TestCheckArithPromotion(t *testing.T) {
	f := mustCheck(t, `
void w(void) {
    int i = 3;
    float x = 1.5f;
    double d = 2.5;
    float complex cf = 0;
    double complex cd = 0;
    int r1 = i + i;
    double r2 = i + d;
    float r3 = i + x;
    double complex r4 = cf + d;
    float complex r5 = cf + x;
    double complex r6 = cd + i;
}`)
	body := f.Funcs[0].Body.List
	wants := map[int]TypeKind{5: TInt, 6: TDouble, 7: TFloat, 8: TComplexDouble, 9: TComplexFloat, 10: TComplexDouble}
	for idx, want := range wants {
		d := body[idx].(*DeclStmt).Decls[0]
		got := d.Init.ResultType().Kind
		if got != want {
			t.Errorf("%s: init type kind = %v, want %v", d.Name, got, want)
		}
	}
}

func TestCheckPointerOps(t *testing.T) {
	f := mustCheck(t, `
long diff(float* a, float* b) {
    float* p = a + 3;
    return p - b;
}`)
	ret := f.Funcs[0].Body.List[1].(*ReturnStmt)
	if ret.Value.ResultType().Kind != TLong {
		t.Errorf("pointer difference type = %s", ret.Value.ResultType())
	}
}

func TestCheckMemberAccess(t *testing.T) {
	f := mustCheck(t, `
typedef struct { float re; float im; } cpx;
float getim(cpx* p) { return p->im; }
float getre(cpx v) { return v.re; }
`)
	for _, fn := range f.Funcs {
		ret := fn.Body.List[0].(*ReturnStmt)
		me := ret.Value.(*MemberExpr)
		wantIdx := 1
		if fn.Name == "getre" {
			wantIdx = 0
		}
		if me.FieldIndex != wantIdx {
			t.Errorf("%s: field index = %d, want %d", fn.Name, me.FieldIndex, wantIdx)
		}
	}
}

func TestCheckBadMember(t *testing.T) {
	checkErr(t, `
typedef struct { int x; } s;
int f(s v) { return v.y; }`, "no field")
}

func TestCheckDerefNonPointer(t *testing.T) {
	checkErr(t, "int f(int x) { return *x; }", "dereference")
}

func TestCheckVoidPointerIndexRejected(t *testing.T) {
	checkErr(t, "int f(void* p) { return ((int*)0)[0] + p[1]; }", "void*")
}

func TestCheckBuiltins(t *testing.T) {
	f := mustCheck(t, `
double f(double x) { return sin(x) + sqrt(x); }
float g(float x) { return sinf(x); }
void* h(int n) { return malloc(n * 8); }
`)
	call := f.Funcs[0].Body.List[0].(*ReturnStmt).Value.(*BinaryExpr).L.(*CallExpr)
	if call.Builtin != "sin" {
		t.Errorf("builtin = %q, want sin", call.Builtin)
	}
	if call.ResultType().Kind != TDouble {
		t.Errorf("sin result = %s", call.ResultType())
	}
	mall := f.Funcs[2].Body.List[0].(*ReturnStmt).Value.(*CallExpr)
	if mall.Builtin != "malloc" || !mall.ResultType().IsVoidPointer() {
		t.Errorf("malloc = %q -> %s", mall.Builtin, mall.ResultType())
	}
}

func TestCheckUserFunctionShadowsBuiltin(t *testing.T) {
	f := mustCheck(t, `
double sin(double x) { return x; }
double f(double x) { return sin(x); }
`)
	call := f.Funcs[1].Body.List[0].(*ReturnStmt).Value.(*CallExpr)
	if call.Builtin != "" {
		t.Error("user-defined sin should not resolve to builtin")
	}
}

func TestCheckArgCount(t *testing.T) {
	checkErr(t, `
int add(int a, int b) { return a + b; }
int f(void) { return add(1); }`, "expects 2 arguments")
}

func TestCheckArgCountBuiltin(t *testing.T) {
	checkErr(t, "double f(void) { return sin(1.0, 2.0); }", "expects 1 arguments")
}

func TestCheckPrintfVariadic(t *testing.T) {
	mustCheck(t, `void f(int n) { printf("%d %f\n", n, 1.5); }`)
}

func TestCheckReturnMismatch(t *testing.T) {
	checkErr(t, `
typedef struct { int x; } s;
int f(s v) { return v; }`, "cannot return")
	checkErr(t, "void f(void) { return 3; }", "return with value")
	checkErr(t, "int f(void) { return; }", "return without value")
}

func TestCheckAssignability(t *testing.T) {
	checkErr(t, `
typedef struct { int x; } s;
void f(s v) { int y; y = v; }`, "cannot assign")
}

func TestCheckLvalue(t *testing.T) {
	checkErr(t, "void f(void) { 3 = 4; }", "not an lvalue")
	checkErr(t, "void f(int x) { &(x + 1); }", "non-lvalue")
}

func TestCheckComplexOps(t *testing.T) {
	mustCheck(t, `
#include <complex.h>
double complex rotate(double complex z, double angle) {
    return z * cexp(angle * I);
}
double mag(double complex z) { return cabs(z); }
double re(double complex z) { return creal(z); }
`)
}

func TestCheckComplexComparisonRejected(t *testing.T) {
	checkErr(t, `
int f(double complex a, double complex b) { return a < b; }`, "invalid operands")
}

func TestCheckScopes(t *testing.T) {
	f := mustCheck(t, `
int x = 1;
int f(void) {
    int x = 2;
    {
        int x = 3;
        x = 4;
    }
    return x;
}`)
	// The return must resolve to the function-level x, not the global.
	ret := f.Funcs[0].Body.List[2].(*ReturnStmt)
	id := ret.Value.(*IdentExpr)
	if id.Def == nil || id.Def.Global {
		t.Error("return x resolved to global, want local")
	}
}

func TestCheckSwitchTag(t *testing.T) {
	checkErr(t, "void f(double d) { switch (d) { case 1: break; } }", "switch tag")
}

func TestCheckStringArg(t *testing.T) {
	mustCheck(t, `void f(void) { puts("hello"); }`)
}

func TestCheckVLADecl(t *testing.T) {
	mustCheck(t, `
void f(int n) {
    double buf[n];
    double grid[n][4];
    buf[0] = grid[0][0];
}`)
	checkErr(t, "void f(double d) { int buf[d]; }", "must be an integer")
}

func TestUsualArithTable(t *testing.T) {
	cases := []struct{ a, b, want *Type }{
		{Int, Int, Int},
		{Char, Char, Int},
		{Int, Long, Long},
		{Int, Float, Float},
		{Float, Double, Double},
		{Float, ComplexFloat, ComplexFloat},
		{Double, ComplexFloat, ComplexDouble},
		{ComplexFloat, ComplexDouble, ComplexDouble},
		{Long, Double, Double},
	}
	for _, c := range cases {
		if got := UsualArith(c.a, c.b); got.Kind != c.want.Kind {
			t.Errorf("UsualArith(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := UsualArith(c.b, c.a); got.Kind != c.want.Kind {
			t.Errorf("UsualArith(%s, %s) = %s, want %s", c.b, c.a, got, c.want)
		}
	}
}

func TestSizeofLayout(t *testing.T) {
	f := mustCheck(t, `
typedef struct { float re; float im; } cf;
typedef struct { char c; double d; } padded;
`)
	cf := f.Typedefs[0].Type
	if cf.Sizeof() != 8 {
		t.Errorf("sizeof(cf) = %d, want 8", cf.Sizeof())
	}
	padded := f.Typedefs[1].Type
	if padded.Sizeof() != 16 {
		t.Errorf("sizeof(padded) = %d, want 16 (alignment padding)", padded.Sizeof())
	}
	if Int.Sizeof() != 4 || Double.Sizeof() != 8 || ComplexFloat.Sizeof() != 8 ||
		ComplexDouble.Sizeof() != 16 || PointerTo(Int).Sizeof() != 8 {
		t.Error("scalar sizes wrong")
	}
	if ArrayOf(Float, 10).Sizeof() != 40 {
		t.Error("array size wrong")
	}
}

func TestTypeSame(t *testing.T) {
	if !PointerTo(Float).Same(PointerTo(Float)) {
		t.Error("identical pointer types differ")
	}
	if PointerTo(Float).Same(PointerTo(Double)) {
		t.Error("distinct pointer types compare equal")
	}
	if !ArrayOf(Int, 4).Same(ArrayOf(Int, 4)) {
		t.Error("identical arrays differ")
	}
	if ArrayOf(Int, 4).Same(ArrayOf(Int, 5)) {
		t.Error("different-length arrays compare equal")
	}
	s1 := &Type{Kind: TStruct, StructName: "a", Fields: []Field{{"x", Int}}}
	s2 := &Type{Kind: TStruct, StructName: "a"}
	if !s1.Same(s2) {
		t.Error("same-named structs differ")
	}
}

func TestConvertibleTo(t *testing.T) {
	cases := []struct {
		from, to *Type
		want     bool
	}{
		{Int, Double, true},
		{Double, Int, true},
		{ComplexFloat, Float, true}, // drops imaginary part
		{PointerTo(Float), PointerTo(Float), true},
		{PointerTo(Float), PointerTo(Double), false},
		{PointerTo(Float), PointerTo(Void), true},
		{PointerTo(Void), PointerTo(Float), true},
		{ArrayOf(Float, 8), PointerTo(Float), true},
		{Int, PointerTo(Float), true}, // NULL literal
		{&Type{Kind: TStruct, StructName: "s"}, Int, false},
	}
	for _, c := range cases {
		if got := c.from.ConvertibleTo(c.to); got != c.want {
			t.Errorf("ConvertibleTo(%s, %s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestCheckRedefinition(t *testing.T) {
	checkErr(t, `
int f(void) { return 1; }
int f(void) { return 2; }`, "redefinition")
	// Prototype + definition (in either order) remains legal.
	mustCheck(t, `
int g(void);
int g(void) { return 1; }
int h(void) { return g(); }
int later(void);
`)
}

// slotsOf renders every variable's slot assignment in declaration order.
func slotsOf(f *File) string {
	var b strings.Builder
	for _, g := range f.Globals {
		fmt.Fprintf(&b, "global %s=%d esc=%v\n", g.Name, g.Slot, g.Escapes)
	}
	for _, fn := range f.Funcs {
		fmt.Fprintf(&b, "func %s slots=%d\n", fn.Name, fn.NumSlots)
		for _, p := range fn.Params {
			fmt.Fprintf(&b, "  param %s=%d esc=%v\n", p.Name, p.Slot, p.Escapes)
		}
		if fn.Body != nil {
			walkDecls(fn.Body, func(d *VarDecl) {
				fmt.Fprintf(&b, "  local %s=%d static=%v esc=%v\n", d.Name, d.Slot, d.IsStatic(), d.Escapes)
			})
		}
	}
	fmt.Fprintf(&b, "globals=%d\n", f.NumGlobals)
	return b.String()
}

func walkDecls(s Stmt, visit func(*VarDecl)) {
	switch st := s.(type) {
	case *DeclStmt:
		for _, d := range st.Decls {
			visit(d)
		}
	case *BlockStmt:
		for _, sub := range st.List {
			walkDecls(sub, visit)
		}
	case *IfStmt:
		walkDecls(st.Then, visit)
		walkDecls(st.Else, visit)
	case *ForStmt:
		walkDecls(st.Init, visit)
		walkDecls(st.Body, visit)
	case *WhileStmt:
		walkDecls(st.Body, visit)
	}
}

const slotSrc = `
int g = 1;
int h;
int f(int n, int* out) {
    static int calls = 0;
    int x = n;
    int* p = &x;
    {
        int x = 2;
        *out = x;
    }
    for (int i = 0; i < n; i++) {
        int x = i;
        calls += x;
    }
    return *p + calls + g;
}
int other(int a) {
    int b = a;
    return b + h;
}`

func TestCheckAssignsSlots(t *testing.T) {
	f := mustCheck(t, slotSrc)
	want := `global g=0 esc=false
global h=1 esc=false
func f slots=7
  param n=0 esc=false
  param out=1 esc=false
  local calls=2 static=true esc=false
  local x=2 static=false esc=true
  local p=3 static=false esc=false
  local x=4 static=false esc=false
  local i=5 static=false esc=false
  local x=6 static=false esc=false
func other slots=2
  param a=0 esc=false
  local b=1 static=false esc=false
globals=3
`
	if got := slotsOf(f); got != want {
		t.Fatalf("slots:\n%s\nwant:\n%s", got, want)
	}
}

func TestCheckTwiceIsIdempotent(t *testing.T) {
	f := mustCheck(t, slotSrc)
	first := slotsOf(f)
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	if second := slotsOf(f); second != first {
		t.Fatalf("re-check changed slots:\n%s\nfirst:\n%s", second, first)
	}
}
