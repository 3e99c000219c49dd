package model

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/nn"
	"dust/internal/vector"
)

func TestFeaturizerDeterministicAndNormalized(t *testing.T) {
	f := NewRoBERTaFeaturizer()
	h := []string{"Park Name", "Country"}
	v := []string{"River Park", "USA"}
	a := f.Features(h, v)
	b := f.Features(h, v)
	if vector.Euclidean(a, b) != 0 {
		t.Error("Features nondeterministic")
	}
	if math.Abs(vector.Norm(a)-1) > 1e-9 {
		t.Errorf("Features norm = %v, want 1", vector.Norm(a))
	}
	if len(a) != f.Dim {
		t.Errorf("Features dim = %d, want %d", len(a), f.Dim)
	}
}

func TestFeaturizerSeparatesBySeed(t *testing.T) {
	b := NewBERTFeaturizer()
	r := NewRoBERTaFeaturizer()
	if b.Dim == r.Dim && b.Seed == r.Seed {
		t.Error("BERT and RoBERTa featurizers identical")
	}
}

// small returns a small pair dataset from a compact benchmark.
func smallDataset(t *testing.T) datagen.PairDataset {
	t.Helper()
	bench := datagen.Generate("model-test", datagen.Config{
		Seed: 51, Domains: 8, TablesPerBase: 8, BaseRows: 60, MinRows: 10, MaxRows: 20,
	})
	return datagen.Pairs(bench, 1200, 52)
}

func TestModelDimAndName(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.OutDim = 48
	m := Train("named", NewBERTFeaturizer(), ds.Train[:100], ds.Val[:20], cfg)
	if m.Name() != "named" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Dim() != 48 {
		t.Errorf("Dim = %d, want 48", m.Dim())
	}
	if len(m.EncodeTuple([]string{"a"}, []string{"b"})) != 48 {
		t.Error("EncodeTuple dim mismatch")
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "named" || back.Dim() != 48 {
		t.Errorf("loaded: Name = %q, Dim = %d; want named, 48", back.Name(), back.Dim())
	}
	if len(back.EncodeTuple([]string{"a"}, []string{"b"})) != 48 {
		t.Error("loaded EncodeTuple dim mismatch")
	}
}

// TestLoadRefusesUnchainedShapes: a head that does not take the
// featurizer's width, a head whose second linear layer does not take the
// first one's output, and a zero featurizer width each fail to load instead
// of panicking at the first encode.
func TestLoadRefusesUnchainedShapes(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 1
	m := Train("dust-bert", NewBERTFeaturizer(), ds.Train[:50], ds.Val[:10], cfg)
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(saved.String(), "\n")
	if _, err := Load(strings.NewReader(header + "\n" + body)); err != nil {
		t.Fatalf("unedited model: %v", err)
	}
	// The BERT head under a RoBERTa-width featurizer.
	wide := strings.Replace(header, " 64 ", " 128 ", 1)
	if wide == header {
		t.Fatalf("header %q names no width 64", header)
	}
	if _, err := Load(strings.NewReader(wide + "\n" + body)); err == nil {
		t.Error("featurizer width 128 over a head taking 64: nil error")
	}

	rng := rand.New(rand.NewSource(1))
	net := &nn.Network{Layers: []nn.Layer{
		nn.NewDropout(0.1, rng), nn.NewLinear(64, 96, rng), nn.NewLinear(48, 64, rng),
	}}
	var unchained bytes.Buffer
	unchained.WriteString(header + "\n")
	if err := net.Save(&unchained); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&unchained); err == nil {
		t.Error("linear 64→96 followed by linear 48→64: nil error")
	}

	// A zero-width featurizer under a head with no linear layer chains
	// trivially, and would divide by zero at the first encode.
	net = &nn.Network{Layers: []nn.Layer{nn.NewDropout(0.1, rng)}}
	var empty bytes.Buffer
	empty.WriteString("dustmodel empty 0 1\n")
	if err := net.Save(&empty); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&empty); err == nil {
		t.Error("featurizer width 0 over a dropout-only head: nil error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m := Train("dust-roberta", NewRoBERTaFeaturizer(), ds.Train[:150], ds.Val[:30], cfg)
	h := []string{"Title", "Year"}
	v := []string{"Silent Harbor", "2001"}
	want := m.EncodeTuple(h, v)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "dust-roberta" {
		t.Errorf("loaded name = %q", back.Name())
	}
	got := back.EncodeTuple(h, v)
	if vector.Euclidean(want, got) > 1e-12 {
		t.Error("loaded model produces different embeddings")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("Load of garbage should error")
	}
}

func TestAccuracyEmptyPairs(t *testing.T) {
	if Accuracy(embed.NewBERT(), nil, 0.7) != 0 {
		t.Error("Accuracy of empty set should be 0")
	}
}

// Column-shuffle robustness (paper Fig. 10): embedding a tuple with
// permuted column order must stay very close to the original, because the
// featurizer is order-insensitive by construction.
func TestShuffleRobustness(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 10
	m := Train("dust-roberta", NewRoBERTaFeaturizer(), ds.Train[:400], ds.Val[:80], cfg)
	var worst float64 = 1
	for _, p := range ds.Test[:50] {
		h, v := p.Headers1, p.Values1
		// Rotate columns by one as a permutation.
		hr := append(append([]string{}, h[1:]...), h[0])
		vr := append(append([]string{}, v[1:]...), v[0])
		sim := vector.Cosine(m.EncodeTuple(h, v), m.EncodeTuple(hr, vr))
		if sim < worst {
			worst = sim
		}
	}
	if worst < 0.999 {
		t.Errorf("worst shuffle cosine similarity = %v, want ~1 (order-insensitive)", worst)
	}
}

// sameVecs fails t unless got and want hold the same bits.
func sameVecs(t *testing.T, label string, got, want []vector.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s row %d dim %d: %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// perRow embeds rows one EncodeTuple call at a time: the bits every batch
// path must reproduce.
func perRow(enc TupleEncoder, headers []string, rows [][]string) []vector.Vec {
	out := make([]vector.Vec, len(rows))
	for i, r := range rows {
		out[i] = enc.EncodeTuple(headers, r)
	}
	return out
}

// dirtyTable is a LakeSpec table with unicode, mixed-type and empty cells.
func dirtyTable(t *testing.T) ([]string, [][]string) {
	t.Helper()
	spec := datagen.LakeSpec{Seed: 5, Tables: 4, Rows: 60, Dirty: datagen.DirtySpec{Unicode: 0.3, MixedTypes: 0.3, Empty: 0.1}}
	tbl := spec.Table(1)
	rows := make([][]string, tbl.NumRows())
	var unicode, empty bool
	for i := range rows {
		rows[i] = tbl.Row(i)
		for _, v := range rows[i] {
			unicode = unicode || strings.ContainsFunc(v, func(r rune) bool { return r >= 0x80 })
			empty = empty || v == ""
		}
	}
	if !unicode || !empty {
		t.Fatalf("dirty table has unicode cells %v, empty cells %v; want both", unicode, empty)
	}
	return tbl.Headers(), rows
}

// TestEncodeBatchMatchesEncodeTupleBatch: the pipeline's tuple path
// (EncodeBatchContext over the RoBERTa simulator) returns the encoder's own
// sequential bits at every worker count — including 8, more goroutines than
// the encode kernel keeps token-vector tables for — and per-row EncodeTuple's
// bits on a dirty lake table. A cancelled ctx returns ctx.Err().
func TestEncodeBatchMatchesEncodeTupleBatch(t *testing.T) {
	enc := embed.NewRoBERTa(embed.WithAnisotropy(0.05))
	headers := []string{"Park Name", "Supervisor", "City", "Country"}
	rows := make([][]string, 150)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("Park %d", i), fmt.Sprintf("Supervisor %d", i%17), "", "USA"}
	}
	dirtyHeaders, dirtyRows := dirtyTable(t)
	want, err := enc.EncodeTupleBatch(context.Background(), headers, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantDirty := perRow(enc, dirtyHeaders, dirtyRows)
	for _, workers := range []int{1, 2, 8} {
		got, err := EncodeBatchContext(context.Background(), enc, headers, rows, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameVecs(t, fmt.Sprintf("workers=%d", workers), got, want)
		got, err = EncodeBatchContext(context.Background(), enc, dirtyHeaders, dirtyRows, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameVecs(t, fmt.Sprintf("dirty workers=%d", workers), got, wantDirty)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := EncodeBatchContext(ctx, enc, headers, rows, 2); !errors.Is(err, context.Canceled) || got != nil {
		t.Errorf("cancelled: %d vectors, err %v; want nil, context.Canceled", len(got), err)
	}
}

// TestModelEncodeTupleBatchMatchesEncodeTuple: a fine-tuned model's batch
// path, fed tokens from one schema per batch, reproduces per-row
// EncodeTuple bit for bit.
func TestModelEncodeTupleBatchMatchesEncodeTuple(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m := Train("dust-roberta", NewRoBERTaFeaturizer(), ds.Train[:150], ds.Val[:30], cfg)
	headers, rows := dirtyTable(t)
	want := perRow(m, headers, rows)
	for _, workers := range []int{1, 8} {
		got, err := m.EncodeTupleBatch(context.Background(), headers, rows, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameVecs(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}
