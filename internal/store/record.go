package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"strconv"
)

// On-disk record layout. store.db is a sequence of records, each
//
//	header (16 bytes, little endian)
//	  0  magic "FREC"
//	  4  body length         uint32
//	  8  CRC32C of the body  uint32
//	  12 CRC32C of bytes 0-11
//	body
//	  the six entry fields (Key, Target, Function, Sig, AdapterC, Trace),
//	  each framed as "<decimal length>:<bytes>", then the 32-byte SHA-256
//	  of those framed bytes.
//
// The framed fields are exactly the bytes Entry.checksum hashes, so the
// SHA-256 is the entry checksum itself. The CRCs catch torn and flipped
// bytes; the SHA-256 catches a body whose CRCs were recomputed over the
// wrong content.
const (
	recMagic   = "FREC"
	headerSize = 16
	sumSize    = sha256.Size
	numFields  = 6
	// maxBody rejects a header whose length field could only come from
	// damage: no adapter comes near it.
	maxBody = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one cached adapter.
type Entry struct {
	// Key is the content address (the request digest) the entry was
	// stored under.
	Key string `json:"key"`
	// Target is the accelerator the adapter was synthesized for.
	Target string `json:"target"`
	// Function is the replaced user function.
	Function string `json:"function"`
	// Sig is the user-visible signature of the replaced function.
	Sig string `json:"sig,omitempty"`
	// AdapterC is the synthesized drop-in replacement C source.
	AdapterC string `json:"adapter_c"`
	// Trace is the trace ID of the request whose compilation produced
	// this adapter — the join key back to that request's spans, journal
	// events, and cost ledger. Provenance, not part of the content
	// address: two requests with the same digest share one entry, stamped
	// by whichever compiled it.
	Trace string `json:"trace,omitempty"`
	// Checksum is the hex SHA-256 of the payload fields, written at Put
	// time and re-verified on every Get — defense in depth above the
	// record CRCs.
	Checksum string `json:"checksum"`
}

// frame appends the length-framed payload fields to b.
func (e *Entry) frame(b []byte) []byte {
	for _, s := range [numFields]string{e.Key, e.Target, e.Function, e.Sig, e.AdapterC, e.Trace} {
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, ':')
		b = append(b, s...)
	}
	return b
}

// checksum computes the payload checksum (everything except the checksum
// field itself).
func (e *Entry) checksum() string {
	sum := sha256.Sum256(e.frame(nil))
	return hex.EncodeToString(sum[:])
}

// encodeRecord returns the sealed record for e.
func encodeRecord(e *Entry) []byte {
	rec := e.frame(make([]byte, headerSize, headerSize+len(e.AdapterC)+256))
	sum := sha256.Sum256(rec[headerSize:])
	return seal(append(rec, sum[:]...))
}

// seal fills in the header of rec, whose body starts at headerSize.
func seal(rec []byte) []byte {
	body := rec[headerSize:]
	copy(rec, recMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[8:], crc32.Checksum(body, castagnoli))
	binary.LittleEndian.PutUint32(rec[12:], crc32.Checksum(rec[:12], castagnoli))
	return rec
}

// parseHeader returns the body length a sound header declares.
func parseHeader(h []byte) (int, bool) {
	if len(h) < headerSize || string(h[:4]) != recMagic ||
		binary.LittleEndian.Uint32(h[12:]) != crc32.Checksum(h[:12], castagnoli) {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(h[4:])
	return int(n), n <= maxBody
}

// checkBody verifies a record's body against the CRC in its header and
// its own SHA-256, and splits it into the framed fields (slices of rec,
// not copies). Parsing is strict — no leading zeros, no trailing bytes —
// so an accepted body is the unique encoding of its fields.
func checkBody(rec []byte) (f [numFields][]byte, ok bool) {
	body := rec[headerSize:]
	if binary.LittleEndian.Uint32(rec[8:]) != crc32.Checksum(body, castagnoli) || len(body) < sumSize {
		return f, false
	}
	framed := body[:len(body)-sumSize]
	if sum := sha256.Sum256(framed); !bytes.Equal(sum[:], body[len(framed):]) {
		return f, false
	}
	p := framed
	for i := range f {
		colon := bytes.IndexByte(p, ':')
		if colon < 1 || colon > 10 || (p[0] == '0' && colon > 1) {
			return f, false
		}
		n, err := strconv.ParseUint(string(p[:colon]), 10, 32)
		if err != nil || n > uint64(len(p)-colon-1) {
			return f, false
		}
		f[i], p = p[colon+1:colon+1+int(n)], p[colon+1+int(n):]
	}
	return f, len(p) == 0
}

// decodeRecord verifies rec as a whole record and returns its entry.
func decodeRecord(rec []byte) (Entry, bool) {
	if n, ok := parseHeader(rec); !ok || n != len(rec)-headerSize {
		return Entry{}, false
	}
	f, ok := checkBody(rec)
	if !ok {
		return Entry{}, false
	}
	return Entry{
		Key: string(f[0]), Target: string(f[1]), Function: string(f[2]),
		Sig: string(f[3]), AdapterC: string(f[4]), Trace: string(f[5]),
		Checksum: hex.EncodeToString(rec[len(rec)-sumSize:]),
	}, true
}

// scan streams the records in the first size bytes of r through a
// bounded buffer. It calls fn for every record whose header is sound,
// with the record's offset, its bytes (valid only during the call) and
// its key; key is nil when the body fails its checks. scan returns the
// end of the valid prefix: the offset of the first unsound or truncated
// header, or size.
func scan(r io.ReaderAt, size int64, fn func(off int64, rec, key []byte)) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 256<<10)
	rec := make([]byte, headerSize, 16<<10)
	var off int64
	for size-off >= headerSize {
		if _, err := io.ReadFull(br, rec[:headerSize]); err != nil {
			return off, err
		}
		n, ok := parseHeader(rec)
		if !ok || int64(n) > size-off-headerSize {
			return off, nil
		}
		if cap(rec) < headerSize+n {
			rec = append(rec[:headerSize], make([]byte, n)...)
		}
		rec = rec[:headerSize+n]
		if _, err := io.ReadFull(br, rec[headerSize:]); err != nil {
			return off, err
		}
		var key []byte
		if f, ok := checkBody(rec); ok {
			key = f[0]
		}
		fn(off, rec, key)
		off += int64(len(rec))
	}
	return off, nil
}
