package search

import (
	"bytes"
	"reflect"
	"testing"

	"dust/internal/codec"
	"dust/internal/table"
)

// TestQuantizedExactIdentical pins the acceptance contract of SQ8
// storage: exact-mode results are bit-identical with quantization on,
// both before any graph exists and after a quantized graph has been
// built and abandoned — quantization only ever touches the candidate
// stage.
func TestQuantizedExactIdentical(t *testing.T) {
	b := annBenchSmall(t)
	plain := NewStarmie(b.Lake)
	quant := NewStarmie(b.Lake, WithQuantized(true))
	want := snapshotScored(b.Queries, plain)
	if got := snapshotScored(b.Queries, quant); !reflect.DeepEqual(got, want) {
		t.Fatal("exact-mode results changed under WithQuantized before any graph exists")
	}
	if err := quant.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	if err := quant.SetMode(Exact); err != nil {
		t.Fatal(err)
	}
	if got := snapshotScored(b.Queries, quant); !reflect.DeepEqual(got, want) {
		t.Fatal("exact-mode results changed after building a quantized graph")
	}
}

// TestQuantizedANNRecall gates the quantized candidate stage the same way
// TestANNRecall gates the float one: int8 navigation plus exact re-rank
// must keep at least 95% of the brute-force top 10.
func TestQuantizedANNRecall(t *testing.T) {
	b := annBench(t)
	const k = 10
	exact := NewStarmie(b.Lake)
	quant := NewStarmie(b.Lake, WithQuantized(true), WithMode(ANN))
	if fp := quant.IndexBytes(); fp.Storage != "quantized" || fp.Bytes <= 0 {
		t.Fatalf("IndexBytes = %+v, want quantized storage with a positive footprint", fp)
	}
	r := recallAtK(b.Queries, k,
		func(q *table.Table, k int) []string { return scoredNames(TopK(exact, q, k)) },
		func(q *table.Table, k int) []string { return scoredNames(TopK(quant, q, k)) })
	if r < 0.95 {
		t.Fatalf("quantized recall@%d = %.3f, want >= 0.95", k, r)
	}
}

// TestIndexFootprint checks the IndexBytes accounting that feeds the
// dust_index_bytes gauge and /stats: no graph reports "none", a float
// graph reports "float", and flipping to SQ8 shrinks the stored-vector
// payload to at most 0.3x of float (d+16 vs 4d bytes per vector).
func TestIndexFootprint(t *testing.T) {
	b := annBenchSmall(t)
	s := NewStarmie(b.Lake)
	if fp := s.IndexBytes(); fp.Storage != "none" || fp.Bytes != 0 {
		t.Fatalf("graphless IndexBytes = %+v, want none/0", fp)
	}
	if err := s.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	st, fbytes := s.IndexBytes().Storage, s.IndexBytes().Bytes
	if st != "float" || fbytes <= 0 {
		t.Fatalf("float IndexBytes = %s/%d, want float/>0", st, fbytes)
	}
	fvec := s.Graph().VectorBytes()

	s.SetQuantized(true)
	st, qbytes := s.IndexBytes().Storage, s.IndexBytes().Bytes
	if st != "quantized" || qbytes <= 0 {
		t.Fatalf("quantized IndexBytes = %s/%d, want quantized/>0", st, qbytes)
	}
	if qbytes >= fbytes {
		t.Fatalf("quantized index %d B not smaller than float %d B", qbytes, fbytes)
	}
	qvec := s.Graph().VectorBytes()
	if ratio := float64(qvec) / float64(fvec); ratio > 0.3 {
		t.Fatalf("quantized vector bytes %.3fx of float, want <= 0.3x", ratio)
	}

	// SetQuantized is idempotent and reversible: flipping back rebuilds
	// float storage.
	s.SetQuantized(true)
	if st := s.IndexBytes().Storage; st != "quantized" {
		t.Fatalf("idempotent SetQuantized(true) left storage %s", st)
	}
	s.SetQuantized(false)
	if st := s.IndexBytes().Storage; st != "float" {
		t.Fatalf("SetQuantized(false) left storage %s", st)
	}
}

// TestSaveLoadANNQuantized round-trips a quantized graph through
// SaveANN/LoadANN: storage survives, and the loaded searcher ranks
// bit-identically to the saver.
func TestSaveLoadANNQuantized(t *testing.T) {
	b := annBenchSmall(t)
	s := NewStarmie(b.Lake, WithMode(ANN), WithQuantized(true))
	var buf bytes.Buffer
	if err := s.SaveANN(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := NewStarmie(b.Lake)
	if err := loaded.LoadANN(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !loaded.Graph().Quantized() {
		t.Fatal("loaded graph lost SQ8 storage")
	}
	if err := loaded.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	want := snapshotScored(b.Queries[:3], s)
	if got := snapshotScored(b.Queries[:3], loaded); !reflect.DeepEqual(got, want) {
		t.Fatal("loaded quantized graph ranks differently from the saved one")
	}
}

// TestLoadANNV1Float verifies the format-version bump keeps old indexes
// loadable: a version-1 envelope (the pre-quantization float layout,
// which is the v2 payload minus its leading storage flag) must decode
// into the same graph the v2 file describes.
func TestLoadANNV1Float(t *testing.T) {
	b := annBenchSmall(t)
	s := NewStarmie(b.Lake, WithMode(ANN))
	var buf bytes.Buffer
	if err := s.SaveANN(&buf); err != nil {
		t.Fatal(err)
	}
	_, payload, err := codec.ReadEnvelope(bytes.NewReader(buf.Bytes()), codec.KindANN, ANNFormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the searcher-identity prefix to find where the graph
	// section starts; for float storage the v2 graph payload is exactly
	// the v1 layout behind a single storage-flag byte.
	var pre codec.Buffer
	pre.String(s.enc.Name())
	pre.String(s.enc.Model.Fingerprint())
	pre.Int(s.enc.Dim())
	pre.Strings(s.annTables)
	cut := len(pre.Bytes())
	if payload[cut] != 0 {
		t.Fatalf("expected float storage flag at offset %d, got %d", cut, payload[cut])
	}
	v1 := append(append([]byte(nil), payload[:cut]...), payload[cut+1:]...)
	var v1file bytes.Buffer
	if err := codec.WriteEnvelope(&v1file, codec.KindANN, 1, v1); err != nil {
		t.Fatal(err)
	}

	loaded := NewStarmie(b.Lake)
	if err := loaded.LoadANN(bytes.NewReader(v1file.Bytes())); err != nil {
		t.Fatalf("version-1 ANN file did not load: %v", err)
	}
	if loaded.Graph().Quantized() {
		t.Fatal("v1 float graph decoded as quantized")
	}
	if err := loaded.SetMode(ANN); err != nil {
		t.Fatal(err)
	}
	want := snapshotScored(b.Queries[:3], s)
	if got := snapshotScored(b.Queries[:3], loaded); !reflect.DeepEqual(got, want) {
		t.Fatal("v1-loaded graph ranks differently from the v2 original")
	}
}
