// Package store is faccd's crash-safe adapter cache. Synthesized
// adapters are expensive to produce (a full generate-and-test search)
// and cheap to keep, so the daemon memoizes them keyed by the request
// digest (facc.CompileRequest.Digest). An adapter is a deterministic
// function of its request, so the store only caches output it can
// recompute: a lost entry costs one recompile and never loses data. The
// failure model is hostile: the process may be SIGKILLed mid-write, the
// disk may tear a sector, a bit may flip in flight. The contract is that
// a damaged entry is never served — it is detected, quarantined, and the
// adapter is recompiled — while every acknowledged Put survives a crash
// at any point in the write path. The crash matrix (internal/eval)
// proves that contract at every enumerated crash site.
//
// Engine: one append-only log of checksummed records (store.db, layout
// in record.go) and an in-memory index from digest to the newest record.
//
//   - Open streams the log through a bounded buffer and verifies the
//     CRCs and the SHA-256 of every record. A body that fails is
//     quarantined and skipped. The first unsound header ends the valid
//     prefix: the tail after it is quarantined and truncated away. If a
//     body was quarantined, or dead bytes are at least the live bytes,
//     the log is compacted before the store serves.
//   - Group commit: a single committer appends each batch of Puts with
//     one WriteAt at the tail and one Sync, then points the index at the
//     new records, and only then acknowledges the Puts.
//   - Get is an index lookup, one ReadAt, and the CRC and SHA-256
//     checks. Readers never wait on an fsync. A damaged read is
//     quarantined and becomes a deterministic miss until a re-Put.
//   - Compaction copies the live records to store.db.compact, syncs it
//     and renames it over store.db. It runs on Compact and whenever dead
//     bytes reach the live bytes in a log of at least compactMinBytes.
//   - Quarantine preserves damaged bytes in quarantine/ for post-mortems,
//     bounded by count and age so repeated corruption cannot fill the
//     disk.
//
// All disk I/O runs through a faultinject.VFS (crash-site injection
// under test) and a faultinject.IOBreaker: when storage itself goes
// sick the store degrades to a pass-through — every Get a miss, Puts
// dropped — instead of stalling the compile service on a dying disk.
//
// Metrics (in the registry passed to Open): store.hits, store.misses,
// store.writes, store.commits, store.commit_batches, store.compactions,
// store.corrupt_quarantined, store.wal_torn (torn log tails),
// store.io_errors, the gauge store.quarantined, and the store.breaker.*
// family.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"facc/internal/faultinject"
	"facc/internal/obs"
)

const (
	// compactMinBytes keeps automatic compaction off small logs, where
	// dead bytes cost nothing worth a rewrite.
	compactMinBytes = 1 << 20
	// quarantineMaxFiles and quarantineMaxAge bound the evidence kept in
	// quarantine/; the oldest goes first.
	quarantineMaxFiles = 512
	quarantineMaxAge   = 7 * 24 * time.Hour
	// tailEvidence caps the bytes of a torn tail kept as evidence.
	tailEvidence = 64 << 10
	// maxBatch caps the Puts coalesced into one append and fsync.
	maxBatch = 64
)

// Options configures the store.
type Options struct {
	// VFS is the file-system seam (default the real OS). The crash
	// matrix injects a faultinject.CrashVFS here.
	VFS faultinject.VFS
}

// loc is where a record lives in the log.
type loc struct{ off, n int64 }

// storeOp is one unit of work for the committer goroutine: a Put (rec
// set) or a compaction (rec nil).
type storeOp struct {
	key  string
	rec  []byte
	resp chan error
}

// Store is the crash-safe adapter cache rooted at one directory. Safe
// for concurrent use: reads run in parallel, writes serialize through a
// single group-committing goroutine.
type Store struct {
	dir     string
	reg     *obs.Registry
	vfs     faultinject.VFS
	breaker *faultinject.IOBreaker

	// FaultHook, when non-nil, is consulted before disk operations (op
	// is "read", "append", "sync" or "compact") and may return an error
	// to inject storage faults, or block to hold a commit in flight.
	// Production leaves it nil.
	FaultHook func(op, path string) error

	// mu guards the fields below. After Open the committer writes them
	// all, and a Get that finds damage retires its index entry (index,
	// live, dead). So the committer reads f, gen and tail without the
	// lock. Get holds RLock across its ReadAt, so compaction can close
	// a replaced file once it holds the write lock.
	mu     sync.RWMutex
	f      faultinject.File
	gen    uint64 // bumped by every compaction, which moves all records
	index  map[string]loc
	tail   int64 // end of the acknowledged log
	live   int64 // bytes of indexed records
	dead   int64 // bytes of superseded or damaged records below tail
	closed bool

	// torn marks that a failed append may have left bytes past tail;
	// the next append truncates them first. Committer only.
	torn bool

	ops  chan *storeOp
	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if needed) the store at dir, recovering from any
// prior crash. reg may be nil.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	return OpenOptions(dir, reg, Options{})
}

// OpenOptions opens the store with an explicit VFS.
func OpenOptions(dir string, reg *obs.Registry, opts Options) (*Store, error) {
	s := &Store{
		dir: dir, reg: reg, vfs: opts.VFS,
		breaker: faultinject.NewIOBreaker("store", reg),
		index:   map[string]loc{},
		// Buffered so a burst of Puts queues while a batch is in flight.
		ops:  make(chan *storeOp, 256),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if s.vfs == nil {
		s.vfs = faultinject.OSVFS{}
	}
	for _, d := range []string{dir, s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// A compaction scratch file is pre-rename garbage, and wal.log is
	// the write-ahead log of the paged engine this log replaced; nothing
	// reads either.
	os.Remove(s.compactPath())
	os.Remove(filepath.Join(dir, "wal.log"))
	if err := s.recover(); err != nil {
		if s.f != nil {
			s.f.Close()
		}
		return nil, err
	}
	s.gcQuarantine()
	go s.committer()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Breaker exposes the store's I/O circuit breaker (state inspection and
// journaling hooks).
func (s *Store) Breaker() *faultinject.IOBreaker { return s.breaker }

func (s *Store) dbPath() string        { return filepath.Join(s.dir, "store.db") }
func (s *Store) compactPath() string   { return filepath.Join(s.dir, "store.db.compact") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

func (s *Store) fault(op, path string) error {
	if s.FaultHook != nil {
		return s.FaultHook(op, path)
	}
	return nil
}

func (s *Store) count(name string) { s.reg.Counter(name).Inc() }

// place points key at the record l, retiring the record it replaces.
// Caller holds mu or runs before the committer starts.
func (s *Store) place(key string, l loc) {
	if old, ok := s.index[key]; ok {
		s.live -= old.n
		s.dead += old.n
	}
	s.index[key] = l
	s.live += l.n
}

// recover verifies the whole log, indexes its sound records, and
// quarantines everything else. A torn tail is truncated away and damaged
// bodies are compacted away, so the next open does not find either
// again.
func (s *Store) recover() error {
	f, err := s.vfs.Open(s.dbPath())
	if err != nil {
		return fmt.Errorf("store: opening log: %w", err)
	}
	s.f = f
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("store: sizing log: %w", err)
	}
	damaged := false
	end, err := scan(f, size, func(off int64, rec, key []byte) {
		if key == nil {
			s.quarantine("store.corrupt_quarantined", fmt.Sprintf("record-%d.bin", off), rec)
			s.dead += int64(len(rec))
			damaged = true
			return
		}
		s.place(string(key), loc{off, int64(len(rec))})
	})
	if err != nil {
		return fmt.Errorf("store: reading log: %w", err)
	}
	if end < size {
		// The torn tail of an append the crash interrupted (or a file in
		// another format): nothing past it was ever acknowledged.
		tail := make([]byte, min(size-end, tailEvidence))
		n, _ := f.ReadAt(tail, end)
		s.quarantine("store.wal_torn", fmt.Sprintf("tail-%d.bin", end), tail[:n])
		if err := f.Truncate(end); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	s.tail = end
	if damaged || s.dead > 0 && s.dead >= s.live {
		return s.compactNow()
	}
	return nil
}

// Get returns the entry stored under key, or found=false on a miss. A
// damaged record is quarantined and reported as a miss: the caller
// recompiles. Storage I/O errors degrade to a miss through the breaker —
// the store never fails a compile, it only stops helping.
func (s *Store) Get(key string) (Entry, bool) {
	var e Entry
	found := false
	err := s.breaker.Do(func() error {
		if err := s.fault("read", s.dbPath()); err != nil {
			s.count("store.io_errors")
			return err
		}
		s.mu.RLock()
		l, ok := s.index[key]
		gen := s.gen
		var rec []byte
		var err error
		if ok {
			rec = make([]byte, l.n)
			_, err = io.ReadFull(io.NewSectionReader(s.f, l.off, l.n), rec)
		}
		s.mu.RUnlock()
		if !ok {
			return nil
		}
		if err != nil {
			s.count("store.io_errors")
			return err
		}
		if e, found = decodeRecord(rec); !found || e.Key != key {
			found = false
			s.quarantineRead(key, l, gen, rec)
		}
		return nil
	})
	if err != nil || !found {
		s.count("store.misses")
		return Entry{}, false
	}
	s.count("store.hits")
	return e, true
}

// quarantineRead retires a record that failed its checks on the read
// path. Readers racing on the same damage retire it exactly once; the
// key then misses until a re-Put heals it.
func (s *Store) quarantineRead(key string, l loc, gen uint64, rec []byte) {
	s.mu.Lock()
	mine := s.gen == gen && s.index[key] == l
	if mine {
		delete(s.index, key)
		s.live -= l.n
		s.dead += l.n
	}
	s.mu.Unlock()
	if mine {
		s.quarantine("store.corrupt_quarantined", fmt.Sprintf("record-%d.bin", l.off), rec)
	}
}

// Check verifies the whole log — every record's CRCs and SHA-256, that
// the log ends exactly at its acknowledged tail, and that the index
// points at the newest record of every key — and returns the problems
// found (nil means consistent). For quiescent stores: tests and the
// crash matrix.
func (s *Store) Check() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var problems []string
	newest := map[string]loc{}
	end, err := scan(s.f, s.tail, func(off int64, rec, key []byte) {
		if key == nil {
			problems = append(problems, fmt.Sprintf("record at %d fails its checksums", off))
			return
		}
		newest[string(key)] = loc{off, int64(len(rec))}
	})
	if err != nil {
		problems = append(problems, err.Error())
	}
	if end != s.tail {
		problems = append(problems, fmt.Sprintf("valid log ends at %d, acknowledged tail is %d", end, s.tail))
	}
	if size, err := s.f.Size(); err != nil || size != s.tail {
		problems = append(problems, fmt.Sprintf("log file is %d bytes, acknowledged tail is %d (%v)", size, s.tail, err))
	}
	for key, l := range s.index {
		if newest[key] != l {
			problems = append(problems, fmt.Sprintf("index for %s points at %d, newest record is at %d", key, l.off, newest[key].off))
		}
	}
	if len(newest) != len(s.index) {
		problems = append(problems, fmt.Sprintf("log holds %d keys, index %d", len(newest), len(s.index)))
	}
	return problems
}

// Put durably stores the entry under key. It returns once the entry's
// record is fsynced and indexed — concurrent Puts coalesce into one
// append and one fsync. An error means the entry may not be cached; it
// never means a torn entry is visible (Get would quarantine one).
func (s *Store) Put(key string, e Entry) error {
	e.Key = key
	op := &storeOp{key: key, rec: encodeRecord(&e), resp: make(chan error, 1)}
	if len(op.rec)-headerSize > maxBody {
		return fmt.Errorf("store: put %s: %d-byte entry exceeds the record limit", key, len(op.rec))
	}
	if err := s.submit(op); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Compact synchronously rewrites the live records into a fresh log and
// installs it atomically.
func (s *Store) Compact() error {
	op := &storeOp{resp: make(chan error, 1)}
	if err := s.submit(op); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

var errClosed = errors.New("store is closed")

func (s *Store) submit(op *storeOp) error {
	select {
	case s.ops <- op:
	case <-s.stop:
		return errClosed
	}
	select {
	case err := <-op.resp:
		return err
	case <-s.stop:
		return errClosed
	}
}

// committer is the single writer: it drains queued operations into
// batches, each batch of Puts becoming one append and one fsync.
func (s *Store) committer() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case op := <-s.ops:
			batch := []*storeOp{op}
		drain:
			for len(batch) < maxBatch {
				select {
				case op2 := <-s.ops:
					batch = append(batch, op2)
				default:
					break drain
				}
			}
			s.runBatch(batch)
		}
	}
}

func (s *Store) runBatch(batch []*storeOp) {
	var puts []*storeOp
	for _, op := range batch {
		if op.rec == nil {
			op.resp <- s.breaker.Do(s.compactNow)
			continue
		}
		puts = append(puts, op)
	}
	if len(puts) == 0 {
		return
	}
	err := s.breaker.Do(func() error { return s.commit(puts) })
	if err == nil {
		s.count("store.commit_batches")
		for range puts {
			s.count("store.commits")
			s.count("store.writes")
		}
	}
	for _, op := range puts {
		op.resp <- err
	}
	s.mu.RLock()
	mostlyDead := s.dead >= s.live && s.dead+s.live >= compactMinBytes
	s.mu.RUnlock()
	if mostlyDead {
		s.breaker.Do(s.compactNow)
	}
}

// commit appends a batch of records at the tail with one WriteAt and one
// Sync — the durability point — then indexes them.
func (s *Store) commit(batch []*storeOp) error {
	var buf []byte
	for _, op := range batch {
		buf = append(buf, op.rec...)
	}
	fail := func(stage string, err error) error {
		s.count("store.io_errors")
		return fmt.Errorf("store: commit %s: %w", stage, err)
	}
	if err := s.fault("append", s.dbPath()); err != nil {
		return fail("append", err)
	}
	if s.torn {
		// A later append must not leave a failed one's records after
		// it, where recovery would read them as newer.
		if err := s.f.Truncate(s.tail); err != nil {
			return fail("truncate", err)
		}
		s.torn = false
	}
	if _, err := s.f.WriteAt(buf, s.tail); err != nil {
		s.torn = true
		return fail("append", err)
	}
	if err := s.fault("sync", s.dbPath()); err != nil {
		s.torn = true
		return fail("sync", err)
	}
	if err := s.f.Sync(); err != nil {
		s.torn = true
		return fail("sync", err)
	}
	s.mu.Lock()
	off := s.tail
	for _, op := range batch {
		n := int64(len(op.rec))
		s.place(op.key, loc{off, n})
		off += n
	}
	s.tail = off
	s.mu.Unlock()
	return nil
}

// compactNow (committer goroutine, or recovery before it starts) copies
// every live record into a fresh file, verifying each on the way, and
// installs it with one atomic rename. A crash before the rename leaves
// the old log untouched; Open discards the scratch file.
func (s *Store) compactNow() error {
	path := s.compactPath()
	if err := s.fault("compact", path); err != nil {
		return err
	}
	type item struct {
		key string
		loc
	}
	s.mu.RLock()
	items := make([]item, 0, len(s.index))
	for key, l := range s.index {
		items = append(items, item{key, l})
	}
	s.mu.RUnlock()
	sort.Slice(items, func(i, j int) bool { return items[i].off < items[j].off })

	nf, err := s.vfs.Open(path)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	abort := func(err error) error {
		nf.Close()
		s.vfs.Remove(path)
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := nf.Truncate(0); err != nil {
		return abort(err)
	}
	index := make(map[string]loc, len(items))
	var written int64
	for _, it := range items {
		rec := make([]byte, it.n)
		if _, err := io.ReadFull(io.NewSectionReader(s.f, it.off, it.n), rec); err != nil {
			return abort(err)
		}
		if _, ok := decodeRecord(rec); !ok {
			s.quarantineRead(it.key, it.loc, s.gen, rec)
			continue
		}
		if _, err := nf.WriteAt(rec, written); err != nil {
			return abort(err)
		}
		index[it.key] = loc{written, it.n}
		written += it.n
	}
	if err := nf.Sync(); err != nil {
		return abort(err)
	}
	if err := s.vfs.Rename(path, s.dbPath()); err != nil {
		return abort(err)
	}
	s.mu.Lock()
	old := s.f
	s.f, s.index, s.gen = nf, index, s.gen+1
	s.tail, s.live, s.dead, s.torn = written, written, 0, false
	s.mu.Unlock()
	old.Close()
	s.count("store.compactions")
	return nil
}

// quarantine counts damage under counter and preserves its bytes under a
// unique name in quarantine/, then prunes the directory to its bounds.
func (s *Store) quarantine(counter, name string, data []byte) {
	s.count(counter)
	path := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	os.WriteFile(path, data, 0o644)
	s.gcQuarantine()
}

// gcQuarantine bounds the quarantine directory by age and count (oldest
// evidence goes first) and refreshes the store.quarantined gauge.
func (s *Store) gcQuarantine() {
	dir := s.quarantineDir()
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type qf struct {
		name string
		mod  time.Time
	}
	files := make([]qf, 0, len(des))
	for _, de := range des {
		if info, err := de.Info(); err == nil && !de.IsDir() {
			files = append(files, qf{de.Name(), info.ModTime()})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	cutoff := time.Now().Add(-quarantineMaxAge)
	for len(files) > 0 && (len(files) > quarantineMaxFiles || files[0].mod.Before(cutoff)) {
		os.Remove(filepath.Join(dir, files[0].name))
		files = files[1:]
	}
	s.reg.Gauge("store.quarantined").Set(float64(len(files)))
}

// Close stops the committer and closes the log. Every acknowledged Put
// was already durable at its fsync, so Close loses nothing.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
