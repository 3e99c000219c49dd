package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// writeString is an encoding of one string, the payload of most envelopes
// below.
func writeString(s string) func(*Encoder) error {
	return func(e *Encoder) error {
		e.String(s)
		return nil
	}
}

// readString decodes writeString's payload into *dst.
func readString(dst *string) func(*Decoder) error {
	return func(d *Decoder) error {
		*dst = d.String()
		return nil
	}
}

func envelope(t *testing.T, kind byte, version uint16, fn func(*Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, kind, version, fn); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawEnvelope frames payload bytes as they are, with a valid CRC, so a test
// can hand the decoder any payload at all.
func rawEnvelope(kind byte, version uint16, payload []byte) []byte {
	out := append(append([]byte{}, magic[:]...), kind)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

func TestEnvelopeRoundTrip(t *testing.T) {
	raw := envelope(t, KindStarmie, 3, writeString("hello index"))
	if want := rawEnvelope(KindStarmie, 3, append([]byte{11}, "hello index"...)); !bytes.Equal(raw, want) {
		t.Fatalf("envelope bytes %x, want %x", raw, want)
	}
	var got string
	if err := ReadEnvelope(bytes.NewReader(raw), KindStarmie, 3, readString(&got)); err != nil {
		t.Fatal(err)
	}
	if got != "hello index" {
		t.Errorf("got payload %q", got)
	}
}

func TestEnvelopeEmptyPayload(t *testing.T) {
	none := func(*Encoder) error { return nil }
	raw := envelope(t, KindManifest, 1, none)
	if len(raw) != headerLen+crcLen {
		t.Errorf("empty envelope is %d bytes", len(raw))
	}
	if err := ReadEnvelope(bytes.NewReader(raw), KindManifest, 1, func(*Decoder) error { return nil }); err != nil {
		t.Errorf("empty payload: err %v", err)
	}
}

func TestReadEnvelopeLeavesTheRest(t *testing.T) {
	// Two envelopes back to back: ReadEnvelope reads the first and leaves
	// the reader at the second, which it then reads, leaving the junk after.
	r := bytes.NewReader(append(append(envelope(t, KindManifest, 7, writeString("first")),
		envelope(t, KindStarmie, 2, writeString("second"))...), "junk"...))
	var got string
	if err := ReadEnvelope(r, KindManifest, 7, readString(&got)); err != nil || got != "first" {
		t.Fatalf("first envelope: %q, %v", got, err)
	}
	if err := ReadEnvelope(r, KindStarmie, 2, readString(&got)); err != nil || got != "second" {
		t.Fatalf("second envelope: %q, %v", got, err)
	}
	if r.Len() != len("junk") {
		t.Errorf("%d bytes left after the second envelope, want 4", r.Len())
	}
}

func TestEnvelopeErrors(t *testing.T) {
	valid := envelope(t, KindStarmie, 2, writeString("payload bytes"))

	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOTANINDEXFILE------"), ErrBadMagic},
		{"magic only", valid[:6], ErrTruncated},
		{"header cut", valid[:10], ErrTruncated},
		{"payload cut", valid[:len(valid)-8], ErrTruncated},
		{"crc cut", valid[:len(valid)-1], ErrTruncated},
		{"runaway length", []byte("DSTIDXS\x02\x00\xff\xff\xff\xff\xff\xff\xff\xff"), ErrTruncated},
		// ReadEnvelope leaves what follows the envelope to its caller.
		{"trailing junk", append(bytes.Clone(valid), 0xFF), nil},
		{"forged length", []byte("DSTIDXS\x02\x00\xff\xff\xff\xff\xff\xff\xff\x7f\x05abc"), ErrTruncated},
		{"wrong kind", envelope(t, KindManifest, 2, writeString("payload bytes")), ErrWrongKind},
		{"older version", envelope(t, KindStarmie, 1, writeString("payload bytes")), ErrVersion},
		{"future version", envelope(t, KindStarmie, 3, writeString("payload bytes")), ErrVersion},
		{"zero version", func() []byte {
			b := append([]byte{}, valid...)
			b[7], b[8] = 0, 0
			return b
		}(), ErrVersion},
		{"flipped payload bit", func() []byte {
			b := append([]byte{}, valid...)
			b[headerLen+1] ^= 0x01
			return b
		}(), ErrChecksum},
		{"flipped crc", func() []byte {
			b := append([]byte{}, valid...)
			b[len(b)-1] ^= 0x01
			return b
		}(), ErrChecksum},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got string
			err := ReadEnvelope(bytes.NewReader(c.input), KindStarmie, 2, readString(&got))
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestEnvelopeErrorOrder: past the header, a cut input is ErrTruncated and
// a CRC mismatch ErrChecksum, whatever the decoding met on the way; the
// decoding's own error surfaces only under a good CRC, and undecoded bytes
// after it.
func TestEnvelopeErrorOrder(t *testing.T) {
	// A count and that many floats, decoded into a slice of that length: a
	// flipped count fails the decoding.
	floats := func(e *Encoder) error {
		e.Float64s([]float64{1, 2, 3})
		return nil
	}
	valid := envelope(t, KindStarmie, 1, floats)
	decode := func(d *Decoder) error {
		d.Float64s(make([]float64, 3))
		return nil
	}
	fnErr := errors.New("a loader's own check")
	cases := []struct {
		name  string
		input []byte
		fn    func(*Decoder) error
		want  error
	}{
		{"flipped varint count", func() []byte {
			b := bytes.Clone(valid)
			b[headerLen] = 0x7f
			return b
		}(), decode, ErrChecksum},
		{"cut inside the payload", valid[:headerLen+5], decode, ErrTruncated},
		{"cut inside the payload, loader fails", valid[:headerLen+5], func(*Decoder) error { return fnErr }, ErrTruncated},
		{"bad crc, loader fails", func() []byte {
			b := bytes.Clone(valid)
			b[len(b)-2] ^= 0x10
			return b
		}(), func(*Decoder) error { return fnErr }, ErrChecksum},
		{"good crc, loader fails", valid, func(*Decoder) error { return fnErr }, fnErr},
		{"good crc, count corrupt", rawEnvelope(KindStarmie, 1, []byte{0x7f}), decode, ErrCorrupt},
		{"good crc, payload cut short", rawEnvelope(KindStarmie, 1, []byte{3, 0, 0}), decode, ErrTruncated},
		{"good crc, undecoded bytes", valid, func(d *Decoder) error {
			d.Uvarint()
			return nil
		}, ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := ReadEnvelope(bytes.NewReader(c.input), KindStarmie, 1, c.fn); !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestWriteEnvelopeFailsBeforeWriting: an encoding that fails fails on the
// counting pass, before a byte reaches the writer, and one that encodes
// other bytes the second time fails too.
func TestWriteEnvelopeFailsBeforeWriting(t *testing.T) {
	stop := errors.New("not indexed")
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, KindStarmie, 1, func(e *Encoder) error {
		e.String("partial")
		return stop
	}); !errors.Is(err, stop) || buf.Len() != 0 {
		t.Errorf("err = %v with %d bytes written, want %v and none", err, buf.Len(), stop)
	}
	pass := 0
	if err := WriteEnvelope(&buf, KindStarmie, 1, func(e *Encoder) error {
		pass++
		e.Int(pass)
		e.String(string(make([]byte, pass*200)))
		return nil
	}); err == nil {
		t.Error("an encoding of another length on its second pass was written")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	long := string(bytes.Repeat([]byte("unionable "), bufSize/5)) // longer than the read buffer
	col := make([]float64, bufSize/4)                             // spans the read buffer
	for i := range col {
		col[i] = float64(i) - 0.5
	}
	raw := envelope(t, KindStarmie, 1, func(e *Encoder) error {
		e.Uvarint(0)
		e.Uvarint(1 << 40)
		e.Int(42)
		e.Bool(true)
		e.Bool(false)
		e.String("")
		e.String("unionable tuples")
		e.String(long)
		e.Float64(math.Pi)
		e.Float64(math.Inf(-1))
		e.Float64s(nil)
		e.Float64s([]float64{1, -2.5, 1e-300})
		e.Float64s(col)
		return nil
	})
	err := ReadEnvelope(bytes.NewReader(raw), KindStarmie, 1, func(d *Decoder) error {
		if got := d.Uvarint(); got != 0 {
			t.Errorf("uvarint = %d", got)
		}
		if got := d.Uvarint(); got != 1<<40 {
			t.Errorf("uvarint = %d", got)
		}
		if got := d.Int(); got != 42 {
			t.Errorf("int = %d", got)
		}
		if !d.Bool() || d.Bool() {
			t.Error("bools corrupted")
		}
		if got := d.String(); got != "" {
			t.Errorf("string = %q", got)
		}
		if got := d.String(); got != "unionable tuples" {
			t.Errorf("string = %q", got)
		}
		if got := d.String(); got != long {
			t.Errorf("long string of %d bytes, want %d", len(got), len(long))
		}
		if got := d.Float64(); got != math.Pi {
			t.Errorf("float = %v", got)
		}
		if got := d.Float64(); !math.IsInf(got, -1) {
			t.Errorf("float = %v", got)
		}
		d.Float64s(nil)
		three := make([]float64, 3)
		d.Float64s(three)
		if !reflect.DeepEqual(three, []float64{1, -2.5, 1e-300}) {
			t.Errorf("float64s = %v", three)
		}
		got := make([]float64, len(col))
		d.Float64s(got)
		if !reflect.DeepEqual(got, col) {
			t.Error("a column spanning the read buffer came back changed")
		}
		return nil
	})
	if err != nil {
		t.Errorf("read: %v", err)
	}
}

// decodeRaw runs fn over payload framed with a valid CRC, so the decoder's
// own error is what ReadEnvelope returns.
func decodeRaw(payload []byte, fn func(*Decoder)) error {
	return ReadEnvelope(bytes.NewReader(rawEnvelope(KindStarmie, 1, payload)), KindStarmie, 1,
		func(d *Decoder) error {
			fn(d)
			return nil
		})
}

func TestDecoderTruncation(t *testing.T) {
	full := rawPayload(t, func(e *Encoder) {
		e.String("twelve bytes")
		e.Float64s([]float64{1, 2, 3})
	})
	for cut := 0; cut < len(full); cut++ {
		err := decodeRaw(full[:cut], func(d *Decoder) {
			_ = d.String()
			d.Float64s(make([]float64, 3))
		})
		if err == nil {
			t.Errorf("cut at %d: no error", cut)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d: err = %v", cut, err)
		}
	}
}

// rawPayload returns the payload bytes fn encodes, without the envelope.
func rawPayload(t *testing.T, fn func(*Encoder)) []byte {
	t.Helper()
	raw := envelope(t, KindStarmie, 1, func(e *Encoder) error {
		fn(e)
		return nil
	})
	return raw[headerLen : len(raw)-crcLen]
}

// TestDecoderHostileLengths: a declared length far beyond the input fails
// without allocating by it, whether past the int range or within it.
func TestDecoderHostileLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	if err := decodeRaw(huge, func(d *Decoder) { d.Float64s(nil) }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("float64s of 2^62: err = %v, want ErrCorrupt", err)
	}
	if err := decodeRaw(huge, func(d *Decoder) { _ = d.String() }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("string of 2^62: err = %v, want ErrCorrupt", err)
	}

	long := binary.AppendUvarint(nil, math.MaxInt32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeRaw(append(long, "short"...), func(d *Decoder) { _ = d.String() })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("string of 2^31-1 bytes over 5: err = %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("a string declaring 2^31-1 bytes over 5 allocated %d bytes", n)
	}
	if err := decodeRaw(long, func(d *Decoder) { d.Float64s(make([]float64, 4)) }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("float64s of the wrong count: err = %v, want ErrCorrupt", err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	err := decodeRaw(nil, func(d *Decoder) {
		d.Float64() // fails
		first := d.Err()
		if first == nil {
			t.Fatal("expected error")
		}
		d.Uvarint()
		_ = d.String()
		d.Float64s(make([]float64, 2))
		if d.Err() != first {
			t.Error("error not sticky")
		}
	})
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

func TestDecoderBadBool(t *testing.T) {
	if err := decodeRaw([]byte{7}, func(d *Decoder) { d.Bool() }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}
