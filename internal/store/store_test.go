package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"facc/internal/faultinject"
	"facc/internal/obs"
)

func testEntry(n int) Entry {
	return Entry{
		Target:   "ffta",
		Function: "fft",
		Sig:      fmt.Sprintf("void fft%d(float *data, int n)", n%3),
		AdapterC: fmt.Sprintf("/* adapter %d */\nvoid fft(float *data, int n) {}\n", n),
	}
}

func testKey(n int) string {
	return fmt.Sprintf("%04xdeadbeefdeadbeefdeadbeefdead", n)
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(testKey(1), testEntry(1)); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(testKey(1))
	if !ok || e.AdapterC != testEntry(1).AdapterC || e.Key != testKey(1) {
		t.Fatalf("Get after Put: ok=%v e=%+v", ok, e)
	}
	if len(s.index) != 1 {
		t.Fatalf("index holds %d keys, want 1", len(s.index))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean reopen serves the same entry: durability across restarts.
	s2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	e, ok = s2.Get(testKey(1))
	if !ok || e.AdapterC != testEntry(1).AdapterC {
		t.Fatalf("Get after reopen: ok=%v e=%+v", ok, e)
	}
	c := reg.Counters()
	if c["store.hits"] != 1 || c["store.misses"] != 1 || c["store.writes"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

// TestStoreManyEntries puts many entries, overwrites every third with a
// new value, and demands the newest value of each across a reopen.
func TestStoreManyEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	want := map[string]Entry{}
	for i := 0; i < n; i++ {
		want[testKey(i)] = testEntry(i)
	}
	for i := 0; i < n; i += 3 {
		e := testEntry(i)
		e.AdapterC += "/* recompiled */\n"
		want[testKey(i)] = e
	}
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := s.Put(testKey(i), want[testKey(i)]); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	if problems := s.Check(); len(problems) != 0 {
		t.Fatalf("Check: %v", problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for key, w := range want {
		if e, ok := s2.Get(key); !ok || e.AdapterC != w.AdapterC {
			t.Fatalf("entry %s after reopen: ok=%v", key, ok)
		}
	}
	if len(s2.index) != n {
		t.Fatalf("index holds %d keys, want %d", len(s2.index), n)
	}
}

// flipLastOccurrence flips the bytes of the last occurrence of marker in
// the file at path — the newest record holding it.
func flipLastOccurrence(t *testing.T, path, marker string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndex(data, []byte(marker))
	if idx < 0 {
		t.Fatalf("marker %q not found in %s", marker, path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{data[idx] ^ 0xFF}, int64(idx)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreQuarantinesCorruptRecord: media damage under a cached entry,
// found on the serving path, must never be served — the record is
// quarantined exactly once, every Get misses, and a recompile heals the
// key.
func TestStoreQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(2)
	if err := s.Put(key, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	flipLastOccurrence(t, filepath.Join(dir, "store.db"), "adapter 2")

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if e, ok := s.Get(key); ok {
					t.Errorf("corrupt entry served: %+v", e)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", got)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir: entries=%d err=%v", len(q), err)
	}

	if err := s.Put(key, testEntry(2)); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(key); !ok || e.AdapterC != testEntry(2).AdapterC {
		t.Fatalf("Get after heal: ok=%v e=%+v", ok, e)
	}
}

// TestStoreVerifyOnOpenQuarantines: damage found at open time is
// quarantined and compacted away before the store serves, and the
// neighbours survive.
func TestStoreVerifyOnOpenQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipLastOccurrence(t, filepath.Join(dir, "store.db"), "adapter 11")

	for round, want := range []int64{1, 0} {
		reg := obs.NewRegistry()
		s2, err := Open(dir, reg)
		if err != nil {
			t.Fatal(err)
		}
		// The first open quarantines and compacts; the second finds the
		// damage gone.
		c := reg.Counters()
		if c["store.corrupt_quarantined"] != want || c["store.compactions"] != want {
			t.Fatalf("open %d: quarantined %d, compactions %d, want %d each",
				round, c["store.corrupt_quarantined"], c["store.compactions"], want)
		}
		if problems := s2.Check(); len(problems) != 0 {
			t.Fatalf("store inconsistent after open %d: %v", round, problems)
		}
		if _, ok := s2.Get(testKey(11)); ok {
			t.Fatal("damaged entry served after verify")
		}
		for _, i := range []int{10, 12, 13} {
			if e, ok := s2.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
				t.Fatalf("neighbour %d damaged by recovery: ok=%v", i, ok)
			}
		}
		s2.Close()
	}
}

// TestStoreRecoversDamagedLog covers the three shapes a log meets at
// open: a damaged body mid-log (skipped; the records after it serve), a
// torn tail (truncated), and a database in the paged B-tree format this
// log replaced (unreadable from offset 0, so the store opens empty). In
// each, the store then serves a re-put across a reopen.
func TestStoreRecoversDamagedLog(t *testing.T) {
	cases := []struct {
		name        string
		damage      func(t *testing.T, dir string)
		quarantined int64 // store.corrupt_quarantined
		torn        int64 // store.wal_torn
		serves      []int // keys still served after recovery
	}{
		{
			name: "damaged body mid-log",
			damage: func(t *testing.T, dir string) {
				flipLastOccurrence(t, filepath.Join(dir, "store.db"), "adapter 1 ")
			},
			quarantined: 1, serves: []int{0, 2, 3},
		},
		{
			name: "torn tail",
			damage: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "store.db")
				rec := encodeRecord(&Entry{Key: testKey(4), AdapterC: "torn"})
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(rec[:len(rec)-3]); err != nil {
					t.Fatal(err)
				}
			},
			torn: 1, serves: []int{0, 1, 2, 3},
		},
		{
			name: "paged B-tree database",
			damage: func(t *testing.T, dir string) {
				for _, name := range []string{"store.db", "wal.log"} {
					data, err := os.ReadFile(filepath.Join("testdata", "btree", name))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
			torn: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				e := testEntry(i)
				e.AdapterC = fmt.Sprintf("/* adapter %d */ %s", i, strings.Repeat("x", 100))
				if err := s.Put(testKey(i), e); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			tc.damage(t, dir)

			reg := obs.NewRegistry()
			s2, err := Open(dir, reg)
			if err != nil {
				t.Fatal(err)
			}
			c := reg.Counters()
			if c["store.corrupt_quarantined"] != tc.quarantined || c["store.wal_torn"] != tc.torn {
				t.Fatalf("quarantined %d, torn %d; want %d, %d",
					c["store.corrupt_quarantined"], c["store.wal_torn"], tc.quarantined, tc.torn)
			}
			if problems := s2.Check(); len(problems) != 0 {
				t.Fatalf("store inconsistent after recovery: %v", problems)
			}
			if _, err := os.Stat(filepath.Join(dir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("leftover wal.log not removed: %v", err)
			}
			if len(s2.index) != len(tc.serves) {
				t.Fatalf("recovered %d entries, want %d", len(s2.index), len(tc.serves))
			}
			for _, i := range tc.serves {
				if e, ok := s2.Get(testKey(i)); !ok || !strings.HasPrefix(e.AdapterC, fmt.Sprintf("/* adapter %d */", i)) {
					t.Fatalf("entry %d after recovery: ok=%v %q", i, ok, e.AdapterC)
				}
			}
			if err := s2.Put(testKey(9), testEntry(9)); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3, err := Open(dir, obs.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if e, ok := s3.Get(testKey(9)); !ok || e.AdapterC != testEntry(9).AdapterC {
				t.Fatalf("re-put after recovery not served across reopen: ok=%v", ok)
			}
		})
	}
}

// TestStoreEntryChecksumDefense: a record whose CRCs are sound but whose
// SHA-256 does not match its fields (a logic bug or a hostile writer
// that recomputed the CRCs) still misses and quarantines.
func TestStoreEntryChecksumDefense(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := testKey(20)
	bad := encodeRecord(&Entry{Key: key, AdapterC: "void evil(){}"})
	bad[len(bad)-1] ^= 0x01
	seal(bad)
	// Submitted straight to the committer: Put would compute a correct
	// checksum.
	if err := s.submit(&storeOp{key: key, rec: bad, resp: make(chan error, 1)}); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(key); ok {
		t.Fatalf("entry with bad checksum served: %+v", e)
	}
	if got := reg.Counters()["store.corrupt_quarantined"]; got != 1 {
		t.Fatalf("corrupt_quarantined = %d, want 1", got)
	}
}

// TestStoreReadersDontWaitOnFsync: reads complete while a Put is held
// in flight at its fsync, and the in-flight entry stays invisible until
// that fsync returns. Run under -race.
func TestStoreReadersDontWaitOnFsync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(30), testEntry(30)); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.FaultHook = func(op, path string) error {
		if op == "sync" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
		return nil
	}
	putDone := make(chan error, 1)
	go func() { putDone <- s.Put(testKey(31), testEntry(31)) }()
	<-entered // the Put is now parked before its fsync

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if e, ok := s.Get(testKey(30)); !ok || e.AdapterC != testEntry(30).AdapterC {
					t.Errorf("read failed during commit: ok=%v", ok)
					return
				}
			}
		}()
	}
	readsDone := make(chan struct{})
	go func() { wg.Wait(); close(readsDone) }()
	select {
	case <-readsDone:
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked behind an in-flight fsync")
	}
	if _, ok := s.Get(testKey(31)); ok {
		t.Fatal("entry visible before its fsync")
	}

	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("parked Put failed: %v", err)
	}
	if e, ok := s.Get(testKey(31)); !ok || e.AdapterC != testEntry(31).AdapterC {
		t.Fatalf("entry invisible after commit: ok=%v", ok)
	}
}

func TestStoreGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Park the first commit so the rest of the burst queues behind it.
	hold := make(chan struct{})
	var once sync.Once
	s.FaultHook = func(op, path string) error {
		if op == "append" {
			once.Do(func() { <-hold })
		}
		return nil
	}
	var wg sync.WaitGroup
	const n = 24
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(testKey(40+i), testEntry(40+i)); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the burst enqueue
	close(hold)
	wg.Wait()
	c := reg.Counters()
	if c["store.commits"] != n {
		t.Fatalf("commits = %d, want %d", c["store.commits"], n)
	}
	if c["store.commit_batches"] >= n {
		t.Fatalf("batches = %d: group commit never coalesced %d puts", c["store.commit_batches"], n)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestStoreCompaction: overwrites leave dead records; Compact drops them
// and the newest values survive a reopen. Past compactMinBytes, a log
// that is mostly dead compacts itself.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "store.db")
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	recompiled := func(i int) Entry {
		e := testEntry(i)
		e.Trace = fmt.Sprintf("recompile-%d", i)
		return e
	}
	for i := 0; i < 80; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 70; i++ {
		if err := s.Put(testKey(i), recompiled(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := fileSize(t, db)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := fileSize(t, db); after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	if reg.Counters()["store.compactions"] != 1 {
		t.Fatal("no compaction counted")
	}
	if problems := s.Check(); len(problems) != 0 {
		t.Fatalf("Check after compaction: %v", problems)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 80; i++ {
		want := testEntry(i)
		if i < 70 {
			want = recompiled(i)
		}
		if e, ok := s2.Get(testKey(i)); !ok || e.Trace != want.Trace || e.AdapterC != want.AdapterC {
			t.Fatalf("entry %d after compaction+reopen: ok=%v %+v", i, ok, e)
		}
	}

	// Automatic: rewrite a few large entries until dead bytes pass the
	// live bytes in a log above compactMinBytes.
	big := func(i, round int) Entry {
		e := testEntry(i)
		e.AdapterC = fmt.Sprintf("/* round %d */ %s", round, strings.Repeat("y", compactMinBytes/8))
		return e
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if err := s2.Put(testKey(100+i), big(i, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := reg.Counters()["store.compactions"]; got < 2 {
		t.Fatalf("compactions = %d: a mostly-dead log never compacted itself", got)
	}
	if e, ok := s2.Get(testKey(101)); !ok || e.AdapterC != big(1, 2).AdapterC {
		t.Fatalf("entry lost by automatic compaction: ok=%v", ok)
	}
}

// TestStoreGetRacingCompaction: Gets running while compactions replace
// the log always find the entry. Run under -race.
func TestStoreGetRacingCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		if err := s.Put(testKey(i), testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (r + j) % 20
				if e, ok := s.Get(testKey(i)); !ok || e.AdapterC != testEntry(i).AdapterC {
					t.Errorf("entry %d missed during compaction: ok=%v", i, ok)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 20; round++ {
		if err := s.Put(testKey(round), testEntry(round)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestStoreQuarantineGCBounds(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < quarantineMaxFiles+20; i++ {
		s.quarantine("store.corrupt_quarantined", fmt.Sprintf("record-%d.bin", i), []byte("evidence"))
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) > quarantineMaxFiles {
		t.Fatalf("quarantine dir holds %d files, bound is %d", len(q), quarantineMaxFiles)
	}
	if g := reg.Gauges()["store.quarantined"]; g > quarantineMaxFiles {
		t.Fatalf("store.quarantined gauge = %v, want <= %d", g, quarantineMaxFiles)
	}

	// Age-based GC: a file backdated past the cutoff is pruned.
	old := filepath.Join(dir, "quarantine", "ancient.bin")
	if err := os.WriteFile(old, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-quarantineMaxAge - time.Hour)
	os.Chtimes(old, past, past)
	s.gcQuarantine()
	if _, err := os.Stat(old); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("aged-out quarantine evidence not pruned")
	}
}

// TestStoreBreakerDegradesOnIOErrors: consecutive storage failures open
// the I/O breaker; the store then degrades to pass-through (miss without
// touching the disk) instead of hammering a sick device, and recovers
// once the disk heals.
func TestStoreBreakerDegradesOnIOErrors(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testKey(9), testEntry(9)); err != nil {
		t.Fatal(err)
	}

	sick := true
	hookCalls := 0
	var mu sync.Mutex
	s.FaultHook = func(op, path string) error {
		mu.Lock()
		defer mu.Unlock()
		hookCalls++
		if sick {
			return errors.New("injected: disk unplugged")
		}
		return nil
	}
	threshold := s.Breaker().Threshold
	for i := 0; i < threshold; i++ {
		if _, ok := s.Get(testKey(9)); ok {
			t.Fatalf("hit %d despite injected I/O error", i)
		}
	}
	if s.Breaker().State() != faultinject.Open {
		t.Fatalf("breaker state = %v, want open after %d failures", s.Breaker().State(), threshold)
	}
	mu.Lock()
	callsAtOpen := hookCalls
	mu.Unlock()
	if _, ok := s.Get(testKey(9)); ok {
		t.Fatal("hit while breaker open")
	}
	mu.Lock()
	stillTouching := hookCalls != callsAtOpen
	mu.Unlock()
	if stillTouching {
		t.Fatal("open breaker still touched the disk")
	}
	if err := s.Put(testKey(10), testEntry(10)); err == nil {
		t.Fatal("Put succeeded while breaker open")
	}

	// Disk heals; after the cooldown a probe closes the circuit and the
	// cached entry is servable again.
	mu.Lock()
	sick = false
	mu.Unlock()
	s.Breaker().Cooldown = 0
	if e, ok := s.Get(testKey(9)); !ok || e.AdapterC != testEntry(9).AdapterC {
		t.Fatalf("Get after heal: ok=%v", ok)
	}
	if s.Breaker().State() != faultinject.Closed {
		t.Fatalf("breaker state = %v, want closed", s.Breaker().State())
	}
	if reg.Counters()["store.breaker.rejected"] == 0 {
		t.Fatal("no rejected ops counted")
	}
}

// ---------------------------------------------------------------------
// Crash mini-matrix
// ---------------------------------------------------------------------

// matrixExpect tracks what the workload has durably acknowledged: the
// entries whose Put returned nil must survive any later crash. The one
// Put in flight when the crash fired is recorded too: it may or may not
// have reached its durability point, so both outcomes are legal for its
// key.
type matrixExpect struct {
	present map[string]Entry

	pendingKey   string // key of the Put interrupted by the crash ("" = none)
	pendingEntry Entry  // the value it was writing
}

// withSum is e as Get returns it under key.
func withSum(key string, e Entry) Entry {
	e.Key = key
	e.Checksum = e.checksum()
	return e
}

// matrixKeys bounds the keys the workload writes.
const matrixKeys = 19

// errInjected is the storage fault the workload injects into a Put's
// fsync: the Put fails after its append, leaving unacknowledged bytes
// past the tail for the next append or compaction to discard.
var errInjected = errors.New("injected fsync failure")

// matrixWorkload drives a deterministic write mix through the given VFS
// until it finishes or the planned crash fires, and returns what had
// been acknowledged by then. The mix covers every write path of the
// log: inserts, overwrites on each side of a compaction, compactions of
// 1, 9 and 13 live records, a failed Put followed by a compaction, and a
// failed Put retried by an append that first truncates its bytes. The
// order is fixed, because the matrix numbers its sites by it.
func matrixWorkload(dir string, vfs faultinject.VFS) (*matrixExpect, error) {
	exp := &matrixExpect{present: map[string]Entry{}}
	st, err := OpenOptions(dir, obs.NewRegistry(), Options{VFS: vfs})
	if err != nil {
		return exp, err
	}
	defer st.Close()
	put := func(i int, e Entry) error {
		key := testKey(i)
		if err := st.Put(key, e); err != nil {
			exp.pendingKey, exp.pendingEntry = key, withSum(key, e)
			return err
		}
		exp.present[key] = withSum(key, e)
		return nil
	}
	inserts := func(from, to int) func() error {
		return func() error {
			for i := from; i < to; i++ {
				if err := put(i, testEntry(i)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	overwrite := func(i int, edit func(*Entry)) func() error {
		e := testEntry(i)
		edit(&e)
		return func() error { return put(i, e) }
	}
	restamp := func(e *Entry) { e.Trace = "recompiled" }
	move := func(e *Entry) { e.Target = "vfft" }
	// failedPut puts a first-time key whose fsync fails. The entry is
	// not acknowledged: after a crash it may be absent or intact, never
	// damaged. Any other error is the planned crash.
	failedPut := func(i int) func() error {
		return func() error {
			st.FaultHook = func(op, _ string) error {
				if op == "sync" {
					return errInjected
				}
				return nil
			}
			err := st.Put(testKey(i), testEntry(i))
			st.FaultHook = nil
			if errors.Is(err, errInjected) {
				return nil
			}
			if err == nil {
				err = errors.New("injected fsync failure did not fail the put")
			}
			exp.pendingKey, exp.pendingEntry = testKey(i), withSum(testKey(i), testEntry(i))
			return err
		}
	}
	for _, step := range []func() error{
		inserts(0, 1),
		overwrite(0, restamp),
		st.Compact,
		inserts(1, 9),
		overwrite(2, move),
		overwrite(3, restamp),
		failedPut(9),
		st.Compact,
		inserts(9, 13),
		st.Compact,
		inserts(13, 16),
		failedPut(16),
		inserts(16, matrixKeys),
	} {
		if err := step(); err != nil {
			return exp, err
		}
	}
	return exp, nil
}

// TestStoreCrashMatrix is the package-level crash matrix: the workload
// is probed once to enumerate every durable operation, then replayed
// with a simulated power loss at each site in each damage mode. After
// every crash the store must reopen consistent, serve every
// acknowledged entry byte-identically, and never serve damaged data.
// The full-system matrix (with recompile baselines) lives in
// internal/eval.
func TestStoreCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is not -short")
	}
	probe := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{})
	if _, err := matrixWorkload(t.TempDir(), probe); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	sites := probe.Sites()
	if len(sites) < 30 {
		t.Fatalf("only %d crash sites enumerated, want >= 30", len(sites))
	}
	ops := faultinject.SiteOps(sites)
	for _, op := range []string{"write", "sync", "truncate", "rename"} {
		if ops[op] == 0 {
			t.Fatalf("no %q crash sites in the workload (ops=%v)", op, ops)
		}
	}

	for _, site := range sites {
		for _, mode := range faultinject.CrashModes {
			t.Run(fmt.Sprintf("site%03d_%s_%s", site.Site, site.Op, mode), func(t *testing.T) {
				dir := t.TempDir()
				vfs := faultinject.NewCrashVFS(nil, faultinject.CrashPlan{Site: site.Site, Mode: mode})
				exp, err := matrixWorkload(dir, vfs)
				if !vfs.Crashed() {
					t.Fatalf("plan site %d never fired (err=%v)", site.Site, err)
				}

				// Reboot: recover on the real disk state the crash left.
				st, err := Open(dir, obs.NewRegistry())
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer st.Close()
				if problems := st.Check(); len(problems) != 0 {
					t.Fatalf("store inconsistent after recovery: %v", problems)
				}
				for key, want := range exp.present {
					e, ok := st.Get(key)
					if !ok {
						t.Fatalf("acknowledged entry %s lost", key)
					}
					if e != want && !(key == exp.pendingKey && e == exp.pendingEntry) {
						// Only the interrupted overwrite may have landed
						// in place of the acknowledged value.
						t.Fatalf("entry %s differs after recovery:\n got %+v\nwant %+v", key, e, want)
					}
				}
				if _, acked := exp.present[exp.pendingKey]; exp.pendingKey != "" && !acked {
					// A first-time put interrupted: absent or fully
					// intact are the only legal outcomes.
					if e, ok := st.Get(exp.pendingKey); ok && e != exp.pendingEntry {
						t.Fatalf("interrupted put of %s half-applied: %+v", exp.pendingKey, e)
					}
				}
				// Unacknowledged keys may be present (the crash hit after
				// the durability point) — but then they must be intact.
				for i := 0; i < matrixKeys; i++ {
					key := testKey(i)
					if _, acked := exp.present[key]; acked {
						continue
					}
					if e, ok := st.Get(key); ok && e != withSum(key, testEntry(i)) {
						t.Fatalf("unacknowledged entry %s served damaged: %+v", key, e)
					}
				}
			})
		}
	}
}
