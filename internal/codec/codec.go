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
// Payloads stream both ways and are never held whole: WriteEnvelope runs
// an Encoder twice, once to count the header's length and once to write,
// and ReadEnvelope hands a Decoder the payload as it is read, so a loader
// decodes straight into its own structures and publishes nothing until
// the CRC has passed. The decoder sees bytes before their CRC is checked,
// so no read allocates by a count or length from the input.
//
// Readers fail with typed errors — ErrBadMagic, ErrWrongKind, ErrVersion,
// ErrTruncated, ErrChecksum, ErrCorrupt — never panics, so callers can
// distinguish "not an index file" from "index in another format version"
// (which a caller may rebuild) from "bit rot". Past the header, whatever
// the decoding met first, an input that ends early is ErrTruncated, then a
// CRC mismatch is ErrChecksum, and only then does the decoding's own
// error, such as ErrCorrupt, surface.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
)

// Typed failure modes of ReadEnvelope and Decoder. Wrapped errors always
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
	KindManifest byte = 'M' // pipeline manifest, the first envelope of a saved index
)

const (
	magicLen  = 6
	headerLen = magicLen + 1 + 2 + 8 // magic + kind + version + length
	crcLen    = 4
	// bufSize is the buffer an Encoder writes and a Decoder reads through.
	bufSize = 64 << 10
)

var magic = [magicLen]byte{'D', 'S', 'T', 'I', 'D', 'X'}

// WriteEnvelope writes one envelope of the given kind and version to w, its
// payload the bytes fn encodes. fn runs twice and must encode the same bytes
// both times: first on an Encoder that only counts them, so an error of
// fn's is returned before any byte reaches w, then on one that writes them.
// A second pass of another length fails.
func WriteEnvelope(w io.Writer, kind byte, version uint16, fn func(*Encoder) error) error {
	var n counter
	if err := encode(&n, fn); err != nil {
		return err
	}
	head := append(append(make([]byte, 0, headerLen), magic[:]...), kind)
	head = binary.LittleEndian.AppendUint16(head, version)
	head = binary.LittleEndian.AppendUint64(head, uint64(n))
	if _, err := w.Write(head); err != nil {
		return err
	}
	var written counter
	crc := crc32.NewIEEE()
	if err := encode(io.MultiWriter(w, crc, &written), fn); err != nil {
		return err
	}
	if written != n {
		return fmt.Errorf("codec: payload encoded as %d bytes, then as %d", n, written)
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(head[:0], crc.Sum32()))
	return err
}

// encode runs fn on an Encoder writing to w through a buffer.
func encode(w io.Writer, fn func(*Encoder) error) error {
	e := &Encoder{w: bufio.NewWriterSize(w, bufSize)}
	if err := fn(e); err != nil {
		return err
	}
	return e.w.Flush()
}

// counter is a writer that counts the bytes written to it.
type counter int64

func (c *counter) Write(p []byte) (int, error) {
	*c += counter(len(p))
	return len(p), nil
}

// ReadEnvelope reads one envelope of the expected kind and version from r,
// handing its payload to fn as a Decoder, and leaves r just past the
// envelope's CRC. A file declaring any other version, older or newer,
// fails with ErrVersion before fn runs. Whatever fn leaves undecoded is
// read through the CRC, and the first of these is returned: ErrTruncated
// when the input ends inside the payload or its CRC, ErrChecksum on a CRC
// mismatch, then fn's error or else the decoder's, then ErrCorrupt when
// payload bytes remain undecoded. Until ReadEnvelope returns nil, what fn
// decoded is unverified.
func ReadEnvelope(r io.Reader, kind byte, version uint16, fn func(*Decoder) error) error {
	var head [headerLen]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("codec: read: %w", err)
	}
	if n < magicLen || string(head[:magicLen]) != string(magic[:]) {
		return ErrBadMagic
	}
	if n < headerLen {
		return ErrTruncated
	}
	if got := head[magicLen]; got != kind {
		return fmt.Errorf("%w: got %q, want %q", ErrWrongKind, got, kind)
	}
	if got := binary.LittleEndian.Uint16(head[magicLen+1:]); got != version {
		return fmt.Errorf("%w: file declares version %d, this build reads %d",
			ErrVersion, got, version)
	}
	plen := binary.LittleEndian.Uint64(head[magicLen+3:])
	if plen > math.MaxInt64 {
		return ErrTruncated
	}
	payload := &io.LimitedReader{R: r, N: int64(plen)}
	crc := crc32.NewIEEE()
	d := &Decoder{r: bufio.NewReaderSize(io.TeeReader(payload, crc), bufSize)}
	ferr := fn(d)
	if ferr == nil {
		ferr = d.err
	}
	rest, err := io.Copy(io.Discard, d.r)
	if err != nil {
		return fmt.Errorf("codec: read: %w", err)
	}
	if payload.N > 0 {
		return ErrTruncated
	}
	var sum [crcLen]byte
	if _, err := io.ReadFull(r, sum[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	} else if err != nil {
		return fmt.Errorf("codec: read: %w", err)
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("%w: crc 0x%08x, stored 0x%08x", ErrChecksum, got, want)
	}
	if ferr != nil {
		return ferr
	}
	if rest > 0 {
		return fmt.Errorf("%w: %d undecoded payload bytes", ErrCorrupt, rest)
	}
	return nil
}

// Encoder encodes a payload for WriteEnvelope. Integers are
// uvarint-encoded (counts and lengths are small), float64s fixed-width
// little-endian (embeddings do not compress under varint). The methods drop
// their writes' errors: the buffered writer keeps its first error, refuses
// every later write, and WriteEnvelope returns that error from its Flush.
type Encoder struct {
	w       *bufio.Writer
	scratch [512]byte // packs a varint or a run of float64s into one write
}

// Uvarint encodes an unsigned varint.
func (e *Encoder) Uvarint(x uint64) { _, _ = e.w.Write(binary.AppendUvarint(e.scratch[:0], x)) }

// Int encodes a non-negative int as a uvarint; negative values panic (they
// indicate a programming error, not bad data).
func (e *Encoder) Int(x int) {
	if x < 0 {
		panic(fmt.Sprintf("codec: Encoder.Int(%d): negative", x))
	}
	e.Uvarint(uint64(x))
}

// Bool encodes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		_ = e.w.WriteByte(1)
	} else {
		_ = e.w.WriteByte(0)
	}
}

// String encodes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	_, _ = e.w.WriteString(s)
}

// Float64 encodes one float64 as its IEEE-754 bits.
func (e *Encoder) Float64(f float64) {
	_, _ = e.w.Write(binary.LittleEndian.AppendUint64(e.scratch[:0], math.Float64bits(f)))
}

// Float64s encodes a length-prefixed []float64.
func (e *Encoder) Float64s(v []float64) {
	e.Int(len(v))
	for len(v) > 0 {
		k := min(len(v), len(e.scratch)/8)
		for i, f := range v[:k] {
			binary.LittleEndian.PutUint64(e.scratch[8*i:], math.Float64bits(f))
		}
		_, _ = e.w.Write(e.scratch[:8*k])
		v = v[k:]
	}
}

// Decoder decodes a payload as ReadEnvelope reads it. The first decoding
// failure sticks: every later read returns a zero value and Err reports
// the error, so decoders can run straight-line without per-field checks.
// A read allocates only for bytes it has read, never by a count or length
// the payload declares.
type Decoder struct {
	r   *bufio.Reader
	err error
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// readFail records a failed read: a payload that ended is ErrTruncated,
// anything else corrupt (a varint past 64 bits; an I/O error is reported
// first by ReadEnvelope, which reads on to the end of the payload).
func (d *Decoder) readFail(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.fail(ErrTruncated)
	} else {
		d.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.readFail(err)
		return 0
	}
	return x
}

// Int reads a uvarint and returns it as an int, failing with ErrCorrupt on
// values that do not fit.
func (d *Decoder) Int() int {
	x := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if x > math.MaxInt32 {
		d.fail(fmt.Errorf("%w: count %d out of range", ErrCorrupt, x))
		return 0
	}
	return int(x)
}

// Bool reads one byte as a bool; bytes other than 0 and 1 are corrupt.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	v, err := d.r.ReadByte()
	switch {
	case err != nil:
		d.readFail(err)
	case v > 1:
		d.fail(fmt.Errorf("%w: bool byte 0x%02x", ErrCorrupt, v))
	}
	return v == 1
}

// String reads a length-prefixed string. A string that fits the read
// buffer is copied out of it once read; a longer one grows as it is read.
func (d *Decoder) String() string {
	n := d.Int()
	if d.err != nil {
		return ""
	}
	if n <= d.r.Size() {
		b, err := d.r.Peek(n)
		if err != nil {
			d.readFail(err)
			return ""
		}
		s := string(b)
		_, _ = d.r.Discard(n) // Peek has buffered all n bytes
		return s
	}
	var sb strings.Builder
	if _, err := io.CopyN(&sb, d.r, int64(n)); err != nil {
		d.readFail(err)
		return ""
	}
	return sb.String()
}

// Float64 reads one float64.
func (d *Decoder) Float64() float64 {
	var v [1]float64
	d.float64s(v[:])
	return v[0]
}

// Float64s reads a length-prefixed []float64 into dst, whose length the
// prefix must equal; any other length is corrupt.
func (d *Decoder) Float64s(dst []float64) {
	if n := d.Int(); d.err == nil && n != len(dst) {
		d.fail(fmt.Errorf("%w: %d float64s, want %d", ErrCorrupt, n, len(dst)))
	}
	d.float64s(dst)
}

// float64s fills dst with the float64s that follow, straight from the read
// buffer.
func (d *Decoder) float64s(dst []float64) {
	for len(dst) > 0 && d.err == nil {
		b, err := d.r.Peek(min(8*len(dst), d.r.Size()))
		k := len(b) / 8
		if k == 0 {
			d.readFail(err)
			return
		}
		for i := range dst[:k] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		_, _ = d.r.Discard(8 * k) // Peek has buffered them
		dst = dst[k:]
	}
}
