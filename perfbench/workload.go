package main

import (
	"fmt"
	"math/rand"
	"reflect"

	"facc"
	"facc/internal/bench"
	"facc/internal/minic"
)

// request is one compile a workload issues, with the corpus program it
// was derived from (the checker's ground truth).
type request struct {
	b     *bench.Benchmark
	req   facc.CompileRequest
	novel bool     // a renamed variant no earlier request shares text with
	tag   string   // the rename suffix of a novel request
	base  *request // the pinned request a novel one was derived from
}

// pinnedRequests is the paper's evaluation traffic: every corpus program
// against every target with its Entry and profile pinned.
func pinnedRequests(supportedOnly bool) []request {
	var out []request
	for _, b := range bench.Suite() {
		if supportedOnly && !b.IsSupported() {
			continue
		}
		for _, t := range facc.Targets() {
			out = append(out, request{b: b, req: facc.CompileRequest{
				Name: b.File, Source: b.Source(), Target: t,
				Entry: b.Entry, ProfileValues: b.ProfileValues,
			}})
		}
	}
	return out
}

// wholeRequests compiles the supported programs with no Entry: the facc
// CLI default, which considers every function in the unit. Unsupported
// programs are left out because unpinned they adapt helpers that no
// corpus driver can check.
func wholeRequests() []request {
	var out []request
	for _, b := range bench.SupportedSuite() {
		for _, t := range facc.Targets() {
			out = append(out, request{b: b, req: facc.CompileRequest{
				Name: b.File, Source: b.Source(), Target: t,
				ProfileValues: b.ProfileValues,
			}})
		}
	}
	return out
}

// shuffled returns a seeded permutation of reqs.
func shuffled(reqs []request, rng *rand.Rand) []request {
	out := append([]request(nil), reqs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// novelVariant derives a request no earlier request shares text or
// digest with: the corpus program is parsed, its local variables and the
// parameters of every function but the entry are renamed with tag, and
// it is printed and re-checked. Function names, the entry's parameters,
// globals and struct fields keep their names. The entry's parameter
// names seed the IO cases synthesis draws (iogen.RefSig), so renaming
// them would re-draw the tested lengths and make a novel compile's cost a
// random function of the tag (up to 3.7× the base's interpreter steps
// on one program), not of the program.
func novelVariant(base request, tag string) (request, error) {
	f, err := minic.ParseAndCheck(base.req.Name, base.req.Source)
	if err != nil {
		return request{}, fmt.Errorf("variant of %s: %w", base.b.Name, err)
	}
	keep := map[*minic.VarDecl]bool{}
	if entry := f.Func(base.req.Entry); entry != nil {
		for _, p := range entry.Params {
			keep[p] = true
		}
	}
	renamed := map[*minic.VarDecl]bool{}
	var idents []*minic.IdentExpr
	walkAST(reflect.ValueOf(f), map[uintptr]bool{}, func(v any) {
		switch x := v.(type) {
		case *minic.VarDecl:
			if !x.Global && !keep[x] && !renamed[x] {
				renamed[x] = true
				x.Name = x.Name + "_" + tag
			}
		case *minic.IdentExpr:
			idents = append(idents, x)
		}
	})
	for _, id := range idents {
		if id.Def != nil && renamed[id.Def] {
			id.Name = id.Def.Name
		}
	}
	src := minic.PrintFile(f)
	if _, err := minic.ParseAndCheck(base.req.Name, src); err != nil {
		return request{}, fmt.Errorf("variant of %s does not re-check: %w", base.b.Name, err)
	}
	out := base
	out.req.Source = src
	out.novel, out.tag, out.base = true, tag, &base
	return out, nil
}

// walkAST visits every pointer reachable from v once. The AST links
// identifiers back to their declarations and types to themselves, so the
// seen set is what makes the walk terminate.
func walkAST(v reflect.Value, seen map[uintptr]bool, visit func(any)) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		if v.CanInterface() {
			visit(v.Interface())
		}
		walkAST(v.Elem(), seen, visit)
	case reflect.Interface:
		if !v.IsNil() {
			walkAST(v.Elem(), seen, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				walkAST(v.Field(i), seen, visit)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkAST(v.Index(i), seen, visit)
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			walkAST(iter.Value(), seen, visit)
		}
	}
}
