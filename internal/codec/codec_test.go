package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("hello index")
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, KindStarmie, 3, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelope(&buf, KindStarmie, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("got payload %q", got)
	}
}

func TestEnvelopeEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, KindManifest, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadEnvelope(&buf, KindManifest, 1); err != nil || len(got) != 0 {
		t.Errorf("empty payload: got %v, err %v", got, err)
	}
}

func TestNextEnvelopeLeavesTheRest(t *testing.T) {
	// Two envelopes back to back: NextEnvelope reads the first and leaves
	// the reader at the second, which ReadEnvelope then reads to the end.
	r := bytes.NewReader(append(envelope(t, KindManifest, 7, []byte("first")), envelope(t, KindStarmie, 2, []byte("second"))...))
	if got, err := NextEnvelope(r, KindManifest, 7); err != nil || string(got) != "first" {
		t.Fatalf("first envelope: %q, %v", got, err)
	}
	if got, err := ReadEnvelope(r, KindStarmie, 2); err != nil || string(got) != "second" {
		t.Fatalf("second envelope: %q, %v", got, err)
	}
}

func envelope(t *testing.T, kind byte, version uint16, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, kind, version, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEnvelopeErrors(t *testing.T) {
	valid := envelope(t, KindStarmie, 2, []byte("payload bytes"))

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
		{"trailing junk", append(append([]byte{}, valid...), 0xFF), ErrCorrupt},
		{"wrong kind", envelope(t, KindManifest, 2, []byte("payload bytes")), ErrWrongKind},
		{"older version", envelope(t, KindStarmie, 1, []byte("payload bytes")), ErrVersion},
		{"future version", envelope(t, KindStarmie, 3, []byte("payload bytes")), ErrVersion},
		{"zero version", func() []byte {
			b := append([]byte{}, valid...)
			b[7], b[8] = 0, 0
			return b
		}(), ErrVersion},
		{"flipped payload bit", func() []byte {
			b := append([]byte{}, valid...)
			b[headerLen] ^= 0x01
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
			_, err := ReadEnvelope(bytes.NewReader(c.input), KindStarmie, 2)
			if !errors.Is(err, c.want) {
				t.Errorf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestBufferScannerRoundTrip(t *testing.T) {
	var b Buffer
	b.Uvarint(0)
	b.Uvarint(1 << 40)
	b.Int(42)
	b.Bool(true)
	b.Bool(false)
	b.String("")
	b.String("unionable tuples")
	b.Float64(math.Pi)
	b.Float64(math.Inf(-1))
	b.Float64s(nil)
	b.Float64s([]float64{})
	b.Float64s([]float64{1, -2.5, 1e-300})

	s := NewScanner(b.Bytes())
	if got := s.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := s.Uvarint(); got != 1<<40 {
		t.Errorf("uvarint = %d", got)
	}
	if got := s.Int(); got != 42 {
		t.Errorf("int = %d", got)
	}
	if !s.Bool() || s.Bool() {
		t.Error("bools corrupted")
	}
	if got := s.String(); got != "" {
		t.Errorf("string = %q", got)
	}
	if got := s.String(); got != "unionable tuples" {
		t.Errorf("string = %q", got)
	}
	if got := s.Float64(); got != math.Pi {
		t.Errorf("float = %v", got)
	}
	if got := s.Float64(); !math.IsInf(got, -1) {
		t.Errorf("float = %v", got)
	}
	if got := s.Float64s(); len(got) != 0 {
		t.Errorf("nil float64s = %v", got)
	}
	if got := s.Float64s(); len(got) != 0 {
		t.Errorf("empty float64s = %v", got)
	}
	if got := s.Float64s(); !reflect.DeepEqual(got, []float64{1, -2.5, 1e-300}) {
		t.Errorf("float64s = %v", got)
	}
	if err := s.Finish(); err != nil {
		t.Errorf("finish: %v", err)
	}
}

func TestScannerTruncation(t *testing.T) {
	var b Buffer
	b.String("twelve bytes")
	b.Float64s([]float64{1, 2, 3})
	full := b.Bytes()

	for cut := 0; cut < len(full); cut++ {
		s := NewScanner(full[:cut])
		_ = s.String()
		s.Float64s()
		if err := s.Finish(); err == nil {
			t.Errorf("cut at %d: no error", cut)
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d: err = %v", cut, err)
		}
	}
}

func TestScannerHostileLengths(t *testing.T) {
	// A declared slice length far beyond the input must fail fast without
	// allocating, not OOM.
	var b Buffer
	b.Uvarint(1 << 62)
	s := NewScanner(b.Bytes())
	if got := s.Float64s(); got != nil {
		t.Errorf("got %v", got)
	}
	if s.Err() == nil {
		t.Error("no error for hostile length")
	}

	s = NewScanner(b.Bytes())
	if got := s.String(); got != "" {
		t.Errorf("got %q", got)
	}
	if s.Err() == nil {
		t.Error("no error for hostile string length")
	}
}

func TestScannerStickyError(t *testing.T) {
	s := NewScanner(nil)
	s.Float64() // fails
	first := s.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	s.Uvarint()
	_ = s.String()
	if s.Err() != first {
		t.Error("error not sticky")
	}
}

func TestScannerBadBool(t *testing.T) {
	s := NewScanner([]byte{7})
	s.Bool()
	if !errors.Is(s.Err(), ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", s.Err())
	}
}
