package interp

import (
	"strings"
	"testing"
	"unsafe"
)

// Tests for slot storage: locals live in checker-assigned frame slots,
// scalars whose address is never taken in the frame's own cells, and
// everything else in Allocs of its own.

func TestValueFitsInSixWords(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 48 {
		t.Fatalf("Value is %d bytes, want <= 48", n)
	}
}

func TestAddressOfLocalKeepsExactBounds(t *testing.T) {
	m := run(t, `
int peek(void) {
    int x = 1;
    return (&x)[1];
}`)
	_, err := m.CallNamed("peek", nil)
	if FaultOf(err) != FaultOutOfBounds {
		t.Fatalf("(&x)[1]: want out-of-bounds fault, got %v", err)
	}
	if !strings.Contains(err.Error(), "access to x:") {
		t.Fatalf("fault does not name x: %v", err)
	}
}

func TestLoopLocalRedeclaredAsZero(t *testing.T) {
	m := run(t, `
double sum(int n) {
    double s = 0;
    for (int i = 0; i < n; i++) {
        int k;
        double d;
        s += k + d;
        k = 7;
        d = 0.5;
    }
    return s;
}`)
	if got := callFloat(t, m, "sum", 5); got != 0 {
		t.Fatalf("loop locals leaked across iterations: sum = %g, want 0", got)
	}
}

func TestRecursionKeepsLocalsApart(t *testing.T) {
	m := run(t, `
int walk(int n) {
    int here = n * 10;
    int* p = &n;
    if (n > 0) {
        int below = walk(n - 1);
        here = here + below;
    }
    return here + *p;
}`)
	// walk(n) = 10n + n + walk(n-1): 33 + 22 + 11 + 0.
	if got := callInt(t, m, "walk", 3); got != 66 {
		t.Fatalf("walk(3) = %d, want 66", got)
	}
}

func TestShadowedLocalsStayDistinct(t *testing.T) {
	m := run(t, `
int layers(void) {
    int x = 1;
    int a = x;
    {
        int x = 2;
        a = a * 10 + x;
        {
            int x = 3;
            a = a * 10 + x;
        }
        a = a * 10 + x;
    }
    {
        int x;
        a = a * 10 + x;
    }
    return a * 10 + x;
}`)
	if got := callInt(t, m, "layers"); got != 123201 {
		t.Fatalf("layers() = %d, want 123201", got)
	}
}

func TestStaticLocalInRecursion(t *testing.T) {
	m := run(t, `
int depth(int n) {
    static int calls = 0;
    int mine = n;
    calls++;
    if (n > 0) {
        depth(n - 1);
    }
    return calls * 100 + mine;
}`)
	if got := callInt(t, m, "depth", 3); got != 403 {
		t.Fatalf("depth(3) = %d, want 403", got)
	}
	if got := callInt(t, m, "depth", 0); got != 500 {
		t.Fatalf("depth(0) = %d, want 500", got)
	}
}

// Every declaration books an allocation ID whether or not it gets an
// Alloc, so pointer-to-integer renderings do not depend on which locals
// live in frame cells.
func TestPointerAsIntCountsEveryDeclaration(t *testing.T) {
	m := run(t, `
long where(int n, int k) {
    int a = n;
    int b[4];
    int c = k;
    int* p = &c;
    return (long)p;
}`)
	// n, k, a, b, c take IDs 1..5; p is a scalar local and takes 6.
	if got := callInt(t, m, "where", 1, 2); got != 5<<20+1 {
		t.Fatalf("first call: (long)&c = %d, want %d", got, 5<<20+1)
	}
	if got := callInt(t, m, "where", 1, 2); got != 11<<20+1 {
		t.Fatalf("second call: (long)&c = %d, want %d", got, 11<<20+1)
	}
	if m.Counters.Allocs != 8 {
		t.Fatalf("Counters.Allocs = %d, want 8 (parameters are not counted)", m.Counters.Allocs)
	}
}

func TestStructLocalCopiesAreIndependent(t *testing.T) {
	m := run(t, `
typedef struct { double re; double im; } cpx;
double swap(int n) {
    cpx a = {1.0, 2.0};
    cpx b = a;
    b.re = 5.0;
    cpx c;
    c = b;
    c.im = 7.0;
    return a.re + a.im * 10 + b.re * 100 + b.im * 1000 + c.im * 10000;
}`)
	if got := callFloat(t, m, "swap", 0); got != 1+20+500+2000+70000 {
		t.Fatalf("swap() = %g, want %d", got, 1+20+500+2000+70000)
	}
}
