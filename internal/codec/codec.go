// Package codec implements the versioned binary envelope and payload
// primitives shared by every persisted index in the repo (the Starmie
// search index and the pipeline manifest). The
// format is deliberately simple and self-validating so a warm start never
// trusts a stale or corrupted file:
//
//	magic   "DSTIDX"           (6 bytes)
//	kind    one byte           (which index family the payload belongs to)
//	version uint16 LE          (per-kind payload format version)
//	length  uint64 LE          (payload byte count)
//	payload length bytes
//	crc32   uint32 LE          (IEEE CRC of the payload)
//
// Readers fail with typed errors — ErrBadMagic, ErrWrongKind, ErrVersion,
// ErrTruncated, ErrChecksum, ErrCorrupt — never panics, so callers can
// distinguish "not an index file" from "index in another format version"
// (which a caller may rebuild) from "bit rot". Payloads are built with
// Buffer and decoded with Scanner, whose length reads are bounded by the
// remaining input so a hostile file cannot force large allocations.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Typed failure modes of ReadEnvelope and Scanner. Wrapped errors always
// match these with errors.Is.
var (
	// ErrBadMagic means the input does not start with the DSTIDX magic —
	// it is not an index file at all.
	ErrBadMagic = errors.New("codec: bad magic (not a DUST index file)")
	// ErrWrongKind means the file is a DUST index of a different family
	// than the caller expected (e.g. a manifest passed to the Starmie
	// loader, or an index of a retired kind).
	ErrWrongKind = errors.New("codec: wrong index kind")
	// ErrVersion means the payload format version is not the one this
	// binary reads: the file was written by an older or a newer build.
	ErrVersion = errors.New("codec: unsupported format version")
	// ErrTruncated means the input ended before the declared payload and
	// checksum were read.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrChecksum means the payload bytes do not match the stored CRC.
	ErrChecksum = errors.New("codec: checksum mismatch")
	// ErrCorrupt means the payload is structurally invalid (trailing
	// bytes, impossible lengths, out-of-range values).
	ErrCorrupt = errors.New("codec: corrupt payload")
)

// Envelope kinds. Each persisted structure owns one kind byte. The bytes
// 'A' (HNSW candidate graph), 'D' (D3L multi-signal index) and 'T'
// (tuple-level index) are retired: earlier builds wrote them, today's
// loaders refuse them as ErrWrongKind, and they must never be reused for
// another payload.
const (
	KindStarmie  byte = 'S' // Starmie column-embedding index
	KindManifest byte = 'M' // pipeline index-directory manifest
)

const (
	magicLen  = 6
	headerLen = magicLen + 1 + 2 + 8 // magic + kind + version + length
	crcLen    = 4
)

var magic = [magicLen]byte{'D', 'S', 'T', 'I', 'D', 'X'}

// WriteEnvelope frames payload with the given kind and version and writes
// the complete envelope to w.
func WriteEnvelope(w io.Writer, kind byte, version uint16, payload []byte) error {
	head := make([]byte, 0, headerLen)
	head = append(head, magic[:]...)
	head = append(head, kind)
	head = binary.LittleEndian.AppendUint16(head, version)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(payload)))
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [crcLen]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// ReadEnvelope consumes all of r and validates one envelope of the expected
// kind and version, returning its payload. A file declaring any other
// version, older or newer, fails with ErrVersion.
func ReadEnvelope(r io.Reader, kind byte, version uint16) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("codec: read: %w", err)
	}
	if len(data) < magicLen || string(data[:magicLen]) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	if len(data) < headerLen+crcLen {
		return nil, ErrTruncated
	}
	if got := data[magicLen]; got != kind {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrWrongKind, got, kind)
	}
	if got := binary.LittleEndian.Uint16(data[magicLen+1:]); got != version {
		return nil, fmt.Errorf("%w: file declares version %d, this build reads %d",
			ErrVersion, got, version)
	}
	plen := binary.LittleEndian.Uint64(data[magicLen+3:])
	rest := uint64(len(data) - headerLen - crcLen)
	if plen > rest {
		return nil, ErrTruncated
	}
	if plen < rest {
		return nil, fmt.Errorf("%w: %d trailing bytes after envelope", ErrCorrupt, rest-plen)
	}
	payload := data[headerLen : headerLen+int(plen)]
	want := binary.LittleEndian.Uint32(data[len(data)-crcLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: crc 0x%08x, stored 0x%08x", ErrChecksum, got, want)
	}
	return payload, nil
}

// Buffer accumulates a payload. The zero value is ready to use; writes never
// fail. Integers are uvarint-encoded (counts and lengths are small),
// float64 slices are fixed-width little-endian (embeddings do not compress
// under varint).
type Buffer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (b *Buffer) Bytes() []byte { return b.buf }

// Uvarint appends an unsigned varint.
func (b *Buffer) Uvarint(x uint64) { b.buf = binary.AppendUvarint(b.buf, x) }

// Int appends a non-negative int as a uvarint; negative values panic (they
// indicate a programming error, not bad data).
func (b *Buffer) Int(x int) {
	if x < 0 {
		panic(fmt.Sprintf("codec: Buffer.Int(%d): negative", x))
	}
	b.Uvarint(uint64(x))
}

// Bool appends a bool as one byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
}

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.Int(len(s))
	b.buf = append(b.buf, s...)
}

// Strings appends a length-prefixed []string.
func (b *Buffer) Strings(v []string) {
	b.Int(len(v))
	for _, s := range v {
		b.String(s)
	}
}

// Float64 appends one float64 as its IEEE-754 bits.
func (b *Buffer) Float64(f float64) {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(f))
}

// Float64s appends a length-prefixed []float64.
func (b *Buffer) Float64s(v []float64) {
	b.Int(len(v))
	for _, f := range v {
		b.Float64(f)
	}
}

// Scanner decodes a payload written with Buffer. The first decoding failure
// sticks: every later read returns a zero value, and Err/Finish report the
// error, so decoders can run straight-line without per-field checks. Slice
// and string lengths are validated against the remaining input before
// allocating, bounding memory by the input size.
type Scanner struct {
	buf []byte
	off int
	err error
}

// NewScanner wraps a payload for decoding.
func NewScanner(payload []byte) *Scanner { return &Scanner{buf: payload} }

func (s *Scanner) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

func (s *Scanner) remaining() int { return len(s.buf) - s.off }

// Err returns the first decoding error, or nil.
func (s *Scanner) Err() error { return s.err }

// Finish returns the first decoding error, or ErrCorrupt if undecoded bytes
// remain — a payload must be consumed exactly.
func (s *Scanner) Finish() error {
	if s.err != nil {
		return s.err
	}
	if s.remaining() != 0 {
		return fmt.Errorf("%w: %d undecoded payload bytes", ErrCorrupt, s.remaining())
	}
	return nil
}

// Uvarint reads an unsigned varint.
func (s *Scanner) Uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	x, n := binary.Uvarint(s.buf[s.off:])
	if n <= 0 {
		s.fail(ErrTruncated)
		return 0
	}
	s.off += n
	return x
}

// Int reads a uvarint and returns it as an int, failing with ErrCorrupt on
// values that do not fit.
func (s *Scanner) Int() int {
	x := s.Uvarint()
	if s.err != nil {
		return 0
	}
	if x > math.MaxInt32 {
		s.fail(fmt.Errorf("%w: count %d out of range", ErrCorrupt, x))
		return 0
	}
	return int(x)
}

// Bool reads one byte as a bool; bytes other than 0 and 1 are corrupt.
func (s *Scanner) Bool() bool {
	if s.err != nil {
		return false
	}
	if s.remaining() < 1 {
		s.fail(ErrTruncated)
		return false
	}
	v := s.buf[s.off]
	s.off++
	if v > 1 {
		s.fail(fmt.Errorf("%w: bool byte 0x%02x", ErrCorrupt, v))
		return false
	}
	return v == 1
}

// String reads a length-prefixed string.
func (s *Scanner) String() string {
	n := s.Int()
	if s.err != nil {
		return ""
	}
	if n > s.remaining() {
		s.fail(ErrTruncated)
		return ""
	}
	out := string(s.buf[s.off : s.off+n])
	s.off += n
	return out
}

// Strings reads a length-prefixed []string. The count is validated
// against the remaining input (every element costs at least its length
// prefix) before allocating, so a hostile count cannot force a large
// allocation.
func (s *Scanner) Strings() []string {
	n := s.Int()
	if s.err != nil {
		return nil
	}
	if n > s.remaining() {
		s.fail(ErrTruncated)
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && s.err == nil; i++ {
		out = append(out, s.String())
	}
	if s.err != nil {
		return nil
	}
	return out
}

// Float64 reads one float64.
func (s *Scanner) Float64() float64 {
	if s.err != nil {
		return 0
	}
	if s.remaining() < 8 {
		s.fail(ErrTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(s.buf[s.off:]))
	s.off += 8
	return f
}

// Float64s reads a length-prefixed []float64.
func (s *Scanner) Float64s() []float64 {
	n := s.Int()
	if s.err != nil {
		return nil
	}
	if n > s.remaining()/8 {
		s.fail(ErrTruncated)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.buf[s.off:]))
		s.off += 8
	}
	return out
}
