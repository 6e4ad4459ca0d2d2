package main

import (
	"context"
	"strings"
	"testing"

	"facc"
	"facc/internal/bench"
)

// compileFor compiles one pinned corpus request the way the workloads do.
func compileFor(t *testing.T, name, target string) outcome {
	t.Helper()
	b, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	o := compileOne(context.Background(), request{b: b, req: facc.CompileRequest{
		Name: b.File, Source: b.Source(), Target: target,
		Entry: b.Entry, ProfileValues: b.ProfileValues,
	}}, facc.Options{})
	if o.err != nil || o.adapter == "" || o.unitErr != nil {
		t.Fatalf("%s/%s: compile: err=%v reason=%q unit=%v", name, target, o.err, o.reason, o.unitErr)
	}
	return o
}

// corrupt returns o with old replaced by new in its integrated unit, and
// fails the test when old does not occur (a vacuous corruption).
func corrupt(t *testing.T, o outcome, old, new string) outcome {
	t.Helper()
	if !strings.Contains(o.unit, old) {
		t.Fatalf("corruption target %q not in the integrated unit", old)
	}
	o.unit = strings.ReplaceAll(o.unit, old, new)
	return o
}

// TestCheckerCountsCorruptions feeds the checker a genuine adapter, two
// corrupted ones and a wrong rejection, and requires exactly the three
// bad outputs to count as failures.
func TestCheckerCountsCorruptions(t *testing.T) {
	good := compileFor(t, "normdit", facc.TargetFFTW)
	// The forward call's exponent sign flipped: every twiddle conjugated.
	signFlip := corrupt(t, good, "__len, -1, 0)", "__len, 1, 0)")
	// The 1/N normalization patch dropped.
	noScale := corrupt(t, good, "/= (float)__len", "/= (float)1")

	supported, err := bench.ByName("iterdit")
	if err != nil {
		t.Fatal(err)
	}
	wrongReject := outcome{r: request{b: supported, req: facc.CompileRequest{Target: facc.TargetFFTA}},
		reason: "interface-incompatibility"}

	c := newChecker(7, "")
	ac, err := c.check(&good)
	if err != nil {
		t.Fatalf("genuine adapter rejected: %v", err)
	}
	if ac.offloads == 0 {
		t.Fatal("the replay never reached the device: the corruptions below would go unseen")
	}
	for name, o := range map[string]outcome{"sign flip": signFlip, "scale dropped": noScale, "wrong rejection": wrongReject} {
		if _, err := c.check(&o); err == nil {
			t.Errorf("%s: checker accepted a wrong output", name)
		}
	}
	cr := judge(c, [][]outcome{{good, signFlip, noScale, wrongReject}})
	if cr.attempted != 4 || cr.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3: %v", cr.attempted, cr.failed, cr.errs)
	}
}

func TestCheckRejection(t *testing.T) {
	for _, b := range bench.Suite() {
		err := checkRejection(b, string(b.Failure))
		if b.IsSupported() != (err != nil) {
			t.Errorf("%s: checkRejection(ground truth) = %v", b.Name, err)
		}
		if !b.IsSupported() && checkRejection(b, "printf-or-other") == nil {
			t.Errorf("%s: wrong category accepted", b.Name)
		}
	}
}

// TestVariantsAreNovelAndSeeded checks the serve-mixed stream: the same
// seed gives the same requests, one per block is a variant that keeps
// the entry but shares neither text nor digest with its base, and every
// corpus program can be varied.
func TestVariantsAreNovelAndSeeded(t *testing.T) {
	bases := pinnedRequests(true)
	for _, base := range bases {
		v, err := novelVariant(base, "t1")
		if err != nil {
			t.Fatal(err)
		}
		if v.req.Source == base.req.Source || v.req.Digest() == base.req.Digest() {
			t.Errorf("%s: variant repeats its base", base.b.Name)
		}
		if !strings.Contains(v.req.Source, base.req.Entry+"(") {
			t.Errorf("%s: entry %s renamed", base.b.Name, base.req.Entry)
		}
	}
	a := &sequence{seed: 3, bases: bases, perms: map[[2]int64][]int{}}
	b := &sequence{seed: 3, bases: bases, perms: map[[2]int64][]int{}}
	seen := map[string]bool{}
	novel := 0
	for i := int64(0); i < 5*blockLen; i++ {
		ra, err := a.at(i)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.at(i)
		if err != nil {
			t.Fatal(err)
		}
		if ra.req.Digest() != rb.req.Digest() {
			t.Fatalf("request %d differs between two streams of one seed", i)
		}
		if ra.novel {
			novel++
			if seen[ra.req.Digest()] {
				t.Fatalf("novel request %d repeats", i)
			}
			seen[ra.req.Digest()] = true
		}
	}
	if novel != 5 {
		t.Fatalf("%d novel requests in 5 blocks, want 5", novel)
	}
}
