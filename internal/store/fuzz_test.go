package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCorpus builds one specimen of every shape the log decoder
// meets after a crash; the fuzzer mutates them into hostile neighbours.
func fuzzSeedCorpus() [][]byte {
	one := encodeRecord(&Entry{Key: "aaaa", Target: "ffta", Function: "fft",
		Sig: "void fft(float *x, int n)", AdapterC: "void fft(float *x, int n) {}", Trace: "t1"})
	again := encodeRecord(&Entry{Key: "aaaa", Target: "vfft", AdapterC: "/* moved */"})
	empty := encodeRecord(&Entry{})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	flipped := append([]byte(nil), one...)
	flipped[headerSize+3] ^= 0x10 // body CRC fails
	// CRCs recomputed over a wrong SHA-256: only the entry checksum
	// catches it.
	forged := append([]byte(nil), one...)
	forged[len(forged)-1] ^= 0x01
	seal(forged)

	return [][]byte{
		one,
		cat(one, again),
		empty,
		cat(one, again[:len(again)/2]), // torn tail
		cat(flipped, again),            // damaged body mid-log
		forged,
		[]byte("FREC\xff\xff\xff\xff torn mid-append"),
		cat(one[:headerSize], []byte("FACCBT01 paged database")),
	}
}

// FuzzStoreDecode throws hostile bytes at the log decoder the store
// trusts after a crash. The contract under fuzzing is the quarantine
// contract: hostile input yields rejected records or a shorter valid
// prefix, never a panic, and never an accepted record that re-encodes
// differently (a wrong adapter in disguise).
func FuzzStoreDecode(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		end, err := scan(bytes.NewReader(data), size, func(off int64, rec, key []byte) {
			if off < 0 || off+int64(len(rec)) > size || !bytes.Equal(rec, data[off:off+int64(len(rec))]) {
				t.Fatalf("record at %d is not the input's bytes", off)
			}
			e, ok := decodeRecord(rec)
			if ok != (key != nil) {
				t.Fatalf("scan (key %q) and decodeRecord (ok=%v) disagree at %d", key, ok, off)
			}
			if !ok {
				return
			}
			if e.Key != string(key) || e.Checksum != e.checksum() {
				t.Fatalf("accepted record at %d: key %q vs %q, checksum %s", off, e.Key, key, e.Checksum)
			}
			if !bytes.Equal(encodeRecord(&e), rec) {
				t.Fatalf("accepted record at %d re-encodes differently", off)
			}
		})
		if err != nil {
			t.Fatalf("scan of in-memory bytes: %v", err)
		}
		if end < 0 || end > size {
			t.Fatalf("valid prefix %d out of range [0,%d]", end, size)
		}
		// The prefix ends only where no whole record could start.
		if n, ok := parseHeader(data[end:]); ok && int64(n) <= size-end-headerSize {
			t.Fatalf("scan stopped at %d before a sound %d-byte record", end, n)
		}
	})
}

// TestGenerateFuzzCorpus writes the seed corpus into testdata so the
// committed corpus and the in-code seeds never drift. It only rewrites
// files when FACC_GEN_CORPUS=1; otherwise it verifies they exist.
func TestGenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreDecode")
	seeds := fuzzSeedCorpus()
	if os.Getenv("FACC_GEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := []byte("go test fuzz v1\n[]byte(" + quoteBytes(seed) + ")\n")
			name := filepath.Join(dir, fmtSeedName(i))
			if err := os.WriteFile(name, body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	des, err := os.ReadDir(dir)
	if err != nil || len(des) < len(seeds) {
		t.Fatalf("committed fuzz corpus missing (%d files, want >= %d): regenerate with FACC_GEN_CORPUS=1 (err=%v)", len(des), len(seeds), err)
	}
}

func fmtSeedName(i int) string {
	const hexdigits = "0123456789abcdef"
	return "seed-" + string([]byte{hexdigits[i/16%16], hexdigits[i%16]})
}

// quoteBytes renders data as a Go double-quoted string literal, the
// format `go test fuzz v1` corpus files require.
func quoteBytes(data []byte) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for _, c := range data {
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c >= 0x20 && c < 0x7f:
			b.WriteByte(c)
		default:
			const hexdigits = "0123456789abcdef"
			b.WriteString(`\x`)
			b.WriteByte(hexdigits[c>>4])
			b.WriteByte(hexdigits[c&0xf])
		}
	}
	b.WriteByte('"')
	return b.String()
}
