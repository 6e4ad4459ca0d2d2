package facc

// Determinism regression: case-level parallelism must be externally
// unobservable. Compiling the whole supported corpus with Workers=1 and
// Workers=8 must yield byte-identical adapters and an identical provenance
// journal (the winner, its verdicts, and every event up to it — only the
// oracle cache-stats event may differ, since cases that ran above a kill
// before they were cancelled did real lookups). This is the contract that
// lets -j default to GOMAXPROCS.

import (
	"fmt"
	"strings"
	"testing"

	"facc/internal/bench"
	"facc/internal/obs"
)

// journalKey renders a journal event for cross-worker-count comparison:
// Seq is re-derived from the filtered position (oracle cache-stats events
// are dropped — their hit/miss split legitimately reflects cases that ran
// above a kill), AtUs is wall-clock and excluded.
func journalKey(events []obs.JournalEvent) []string {
	var keys []string
	for _, ev := range events {
		if ev.Kind == obs.KindOracle {
			continue
		}
		keys = append(keys, fmt.Sprintf("%d|%s|%s|%s|%s|%s|%d|%s|%s",
			len(keys), ev.Kind, ev.Function, ev.Candidate, ev.Heuristic,
			ev.Outcome, ev.Tests, ev.Counterexample, ev.Detail))
	}
	return keys
}

func TestSynthesisDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression compiles the whole corpus twice; skipped in -short")
	}
	type outcome struct {
		ok      bool
		reason  string
		adapter string
		journal []string
	}
	compileAll := func(workers int) map[string]outcome {
		out := map[string]outcome{}
		for _, bm := range bench.SupportedSuite() {
			for _, target := range differentialTargets {
				j := obs.NewJournal()
				res, err := Compile(bm.File, bm.Source(), target, Options{
					Entry:         bm.Entry,
					ProfileValues: bm.ProfileValues,
					NumTests:      4,
					Workers:       workers,
					Journal:       j,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", bm.Name, target, workers, err)
				}
				o := outcome{ok: res.OK(), journal: journalKey(j.Events())}
				if o.ok {
					o.adapter = res.AdapterC()
				} else {
					o.reason = res.FailReason()
				}
				out[bm.Name+"/"+target] = o
			}
		}
		return out
	}

	seq := compileAll(1)
	par := compileAll(8)

	if len(seq) != len(par) {
		t.Fatalf("outcome count differs: %d sequential vs %d parallel", len(seq), len(par))
	}
	accepted := 0
	for key, s := range seq {
		p := par[key]
		if s.ok != p.ok {
			t.Errorf("%s: OK differs: sequential %v vs workers=8 %v (%s / %s)",
				key, s.ok, p.ok, s.reason, p.reason)
			continue
		}
		if s.adapter != p.adapter {
			t.Errorf("%s: adapter bytes differ between Workers=1 and Workers=8", key)
		}
		if s.ok {
			accepted++
		}
		if len(s.journal) != len(p.journal) {
			t.Errorf("%s: journal length differs: %d vs %d", key, len(s.journal), len(p.journal))
			continue
		}
		for i := range s.journal {
			if s.journal[i] != p.journal[i] {
				t.Errorf("%s: journal event %d differs:\n  workers=1: %s\n  workers=8: %s",
					key, i, s.journal[i], p.journal[i])
				break
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no adapters accepted; determinism check is vacuous")
	}
	t.Logf("determinism verified on %d outcomes (%d accepted adapters)", len(seq), accepted)
}

// fateKey projects a journal down to candidate fates: which candidates
// were emitted, pruned, fuzz-killed, survived and accepted —
// with the case-level attribution (test count at death, counterexample,
// detail) removed. Counterexample replay exists precisely to kill losers
// at an *earlier* discriminating case, so those fields legitimately vary
// across pool configurations; everything else about the search outcome
// must not.
func fateKey(events []obs.JournalEvent) []string {
	var keys []string
	for _, ev := range events {
		if ev.Kind == obs.KindOracle {
			continue
		}
		keys = append(keys, fmt.Sprintf("%d|%s|%s|%s|%s|%s",
			len(keys), ev.Kind, ev.Function, ev.Candidate, ev.Heuristic, ev.Outcome))
	}
	return keys
}

// killKey renders the kill events for cross-worker-count comparison.
// Steps is excluded: a case whose reference run was already cached by a
// case that ran above an earlier candidate's kill costs 0 steps, so it
// varies with Workers.
func killKey(k *KillTable) []string {
	var keys []string
	for _, ev := range k.Events() {
		ev.Steps = 0
		keys = append(keys, fmt.Sprintf("%+v", ev))
	}
	return keys
}

// TestSynthesisDeterminismMatrix extends the worker-count determinism
// contract to the replay-first search: Workers ∈ {1, 8} × CexPool ∈
// {absent, present-empty (fresh case order), present-primed (replay
// first)}. The invariants, from strongest to weakest:
//
//   - adapters: byte-identical across ALL cells. Replay only permutes
//     each candidate's own deterministic case batch; survival over a
//     fixed case set is order-independent, so the pool can never change
//     which adapter wins.
//   - journals, -search-report text and kill events (minus steps):
//     byte-identical across worker counts within each pool
//     configuration (each compile replays the same pool snapshot), and
//     journals byte-identical between the absent and present-empty
//     columns (an empty pool has a nil replay rank — exactly the fresh
//     case order).
//   - candidate fates: identical across ALL cells. Only the case-level
//     kill attribution (which discriminating case, after how many
//     tests) may differ under replay — that difference is the speedup.
func TestSynthesisDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix compiles the whole corpus seven times; skipped in -short")
	}

	// Prime a pool the way a long-lived -cex-pool file accumulates: one
	// sequential corpus pass recording every kill live.
	primed := NewCexPool()
	for _, bm := range bench.SupportedSuite() {
		for _, target := range differentialTargets {
			if _, err := Compile(bm.File, bm.Source(), target, Options{
				Entry:         bm.Entry,
				ProfileValues: bm.ProfileValues,
				NumTests:      4,
				Workers:       1,
				Cex:           primed,
			}); err != nil {
				t.Fatalf("priming %s/%s: %v", bm.Name, target, err)
			}
		}
	}
	if primed.Len() == 0 {
		t.Fatal("priming recorded no counterexamples; the replay cells would be vacuous")
	}

	type outcome struct {
		ok      bool
		reason  string
		adapter string
		journal []string
		fates   []string
	}
	// matrixCell is one cell's outcomes plus its kill table, which
	// records every compile of the cell.
	type matrixCell struct {
		name   string
		out    map[string]outcome
		report string
		kills  []string
	}
	// pool returns a fresh Options.Cex per compile so every cell's
	// compiles see identical pool state at entry (live recording during
	// one compile must not leak into the next cell's comparison).
	compileAll := func(name string, workers int, pool func() *CexPool) matrixCell {
		out := map[string]outcome{}
		kills := NewKillTable()
		for _, bm := range bench.SupportedSuite() {
			for _, target := range differentialTargets {
				j := obs.NewJournal()
				res, err := Compile(bm.File, bm.Source(), target, Options{
					Entry:         bm.Entry,
					ProfileValues: bm.ProfileValues,
					NumTests:      4,
					Workers:       workers,
					Journal:       j,
					Cex:           pool(),
					Kills:         kills,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", bm.Name, target, workers, err)
				}
				o := outcome{ok: res.OK(), journal: journalKey(j.Events()),
					fates: fateKey(j.Events())}
				if o.ok {
					o.adapter = res.AdapterC()
				} else {
					o.reason = res.FailReason()
				}
				out[bm.Name+"/"+target] = o
			}
		}
		var report strings.Builder
		if err := kills.WriteSearchReport(&report, 10); err != nil {
			t.Fatal(err)
		}
		return matrixCell{name: name, out: out, report: report.String(), kills: killKey(kills)}
	}

	noPool := func() *CexPool { return nil }
	emptyPool := func() *CexPool { return NewCexPool() }
	primedPool := func() *CexPool { return primed.Clone() }
	cells := []matrixCell{
		compileAll("w1/no-pool", 1, noPool),
		compileAll("w8/no-pool", 8, noPool),
		compileAll("w1/empty-pool", 1, emptyPool),
		compileAll("w8/empty-pool", 8, emptyPool),
		compileAll("w1/replay", 1, primedPool),
		compileAll("w8/replay", 8, primedPool),
	}

	base := cells[0].out
	accepted := 0
	for _, o := range base {
		if o.ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no adapters accepted; matrix check is vacuous")
	}

	// Adapters and fates: identical everywhere.
	for _, cell := range cells[1:] {
		for key, b := range base {
			o := cell.out[key]
			if b.ok != o.ok {
				t.Errorf("%s %s: OK differs from w1/no-pool (%v vs %v; %s / %s)",
					cell.name, key, b.ok, o.ok, b.reason, o.reason)
				continue
			}
			if b.adapter != o.adapter {
				t.Errorf("%s %s: adapter bytes differ from w1/no-pool", cell.name, key)
			}
			if len(b.fates) != len(o.fates) {
				t.Errorf("%s %s: fate count differs: %d vs %d",
					cell.name, key, len(b.fates), len(o.fates))
				continue
			}
			for i := range b.fates {
				if b.fates[i] != o.fates[i] {
					t.Errorf("%s %s: candidate fate %d differs:\n  w1/no-pool: %s\n  %s: %s",
						cell.name, key, i, b.fates[i], cell.name, o.fates[i])
					break
				}
			}
		}
	}

	// Journals: byte-identical across worker counts per pool config, and
	// between the no-pool and empty-pool columns.
	sameJournals := func(aName string, a map[string]outcome, bName string, b map[string]outcome) {
		for key, ao := range a {
			bo := b[key]
			if len(ao.journal) != len(bo.journal) {
				t.Errorf("%s vs %s %s: journal length differs: %d vs %d",
					aName, bName, key, len(ao.journal), len(bo.journal))
				continue
			}
			for i := range ao.journal {
				if ao.journal[i] != bo.journal[i] {
					t.Errorf("%s vs %s %s: journal event %d differs:\n  %s\n  %s",
						aName, bName, key, i, ao.journal[i], bo.journal[i])
					break
				}
			}
		}
	}
	sameJournals(cells[0].name, cells[0].out, cells[1].name, cells[1].out) // no-pool: w1 == w8
	sameJournals(cells[2].name, cells[2].out, cells[3].name, cells[3].out) // empty:   w1 == w8
	sameJournals(cells[4].name, cells[4].out, cells[5].name, cells[5].out) // replay:  w1 == w8
	sameJournals(cells[0].name, cells[0].out, cells[2].name, cells[2].out) // empty rank == fresh order

	// Kill attribution: the search report and the kill events (minus
	// steps) are identical across worker counts per pool config.
	for i := 0; i < len(cells); i += 2 {
		a, b := cells[i], cells[i+1]
		if a.report != b.report {
			t.Errorf("%s vs %s: search report differs:\n--- %s ---\n%s--- %s ---\n%s",
				a.name, b.name, a.name, a.report, b.name, b.report)
		}
		if len(a.kills) != len(b.kills) {
			t.Errorf("%s vs %s: %d vs %d kill events", a.name, b.name, len(a.kills), len(b.kills))
			continue
		}
		for j := range a.kills {
			if a.kills[j] != b.kills[j] {
				t.Errorf("%s vs %s: kill event %d differs:\n  %s\n  %s",
					a.name, b.name, j, a.kills[j], b.kills[j])
				break
			}
		}
	}

	t.Logf("matrix verified: %d outcomes x %d cells (%d accepted adapters, %d primed counterexamples)",
		len(base), len(cells), accepted, primed.Len())
}
