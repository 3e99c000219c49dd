package embed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dust/internal/table"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// goldenStreams is the fixed input of TestEncoderGoldenBits: every shape of
// token stream the encode kernel branches on.
func goldenStreams() [][]string {
	long := make([]string, 600)
	for i := range long {
		long[i] = fmt.Sprintf("tok%d", i%97)
	}
	return [][]string{
		nil,
		{"park"},
		{"H:city", "H:city", "H:city", "fresno", "chicago"},    // column header with a synonym class
		{"H:zzz", "H:zzz", "H:zzz", "fresno", "fresno"},        // column header without one
		{"h:city", "fresno", "h:zzz", "usa", "town", "ca"},     // tuple headers, a classed value word
		{"river", "park", "river", "park", "H:name", "h:name"}, // repeats and a header mid-stream
		long,
		TupleTokens(
			[]string{"Park Name", "Supervisor", "City", "Country"},
			[]string{"Chippewa Park", table.Null, "Brandon, MN", "USA"}),
	}
}

// goldenTable has one column over TokenBudget, one under it, one all-null
// and one with a null cell.
func goldenTable() *table.Table {
	big := make([]string, 600)
	for i := range big {
		big[i] = fmt.Sprintf("value%d word%d", i%211, i%13)
	}
	return &table.Table{Name: "golden", Columns: []table.Column{
		{Name: "Big Description", Values: big},
		{Name: "City", Values: []string{"Fresno", "Chicago", table.Null, "Brandon, MN"}},
		{Name: "Empty", Values: []string{table.Null, table.Null}},
		{Name: "Supervised By", Values: []string{"Vera Onate", "Vera Onate", "Jenny Rishi"}},
	}}
}

func digest(vs ...vector.Vec) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
		h.Write(b[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// TestEncoderGoldenBits pins the simulators' output bits. Fingerprint guards
// configuration drift; this guards kernel drift, which would invalidate every
// saved index behind an unchanged Fingerprint. The digests were generated at
// the commit before the token-vector table went under EncodeTokens and must
// only change together with the Fingerprint format.
func TestEncoderGoldenBits(t *testing.T) { eachKernel(t, testEncoderGoldenBits) }

func testEncoderGoldenBits(t *testing.T) {
	want := map[string]string{
		"fasttext":       "12477b97a4ffdbc455264ccf2769cf9f",
		"glove":          "de4c93dbfcd766f12c878e6186b8cc1b",
		"bert":           "855ad8bff3e2de04d662f5e17440ca78",
		"roberta":        "ab8c15f773370b640369ceb34859b64c",
		"sbert":          "c0ce66ae7c751c5e95cbf470eb1ce5d0",
		"roberta/a0.05":  "676b11bf15bd8080982d7f84ba7bcd25",
		"starmie":        "fabc16cb85bf9c35e9b7c4be9a628d95",
		"starmie/corpus": "e3a3d54991037bb9a5b42e0449e39d24",
		"column/corpus":  "ef09702b8f16ded378edc1fa30c45cb1",
		"column/nil":     "eab117552bbbe018d729a4131b19e8fe",
		"cell":           "512309a86410cce9432e4cce0a6c2e41",
	}
	got := map[string]string{}

	streams := goldenStreams()
	encodeAll := func(e *Encoder) string {
		out := make([]vector.Vec, len(streams))
		for i, s := range streams {
			out[i] = e.EncodeTokens(s)
		}
		return digest(out...)
	}
	for _, mk := range simulators {
		e := mk()
		got[e.Name()] = encodeAll(e)
	}
	got["roberta/a0.05"] = encodeAll(NewRoBERTa(WithAnisotropy(0.05)))

	tbl := goldenTable()
	var corpus tokenize.Corpus
	for i := range tbl.Columns {
		corpus.AddDocument(ColumnTokens(&tbl.Columns[i]))
	}
	got["starmie"] = digest(NewStarmie().EncodeTableColumns(tbl, nil)...)
	lazy := func() *tokenize.Corpus { return &corpus }
	got["starmie/corpus"] = digest(NewStarmie().EncodeTableColumns(tbl, lazy)...)
	perColumn := func(enc ColumnEncoder, c func() *tokenize.Corpus) string {
		out := make([]vector.Vec, len(tbl.Columns))
		for i := range tbl.Columns {
			out[i], _ = enc.EncodeColumn(&tbl.Columns[i], c)
		}
		return digest(out...)
	}
	got["column/corpus"] = perColumn(ColumnLevel{Model: NewRoBERTa()}, lazy)
	got["column/nil"] = perColumn(ColumnLevel{Model: NewRoBERTa()}, nil)
	got["cell"] = perColumn(CellLevel{Model: NewSBERT()}, nil)

	if len(got) != len(want) {
		t.Fatalf("computed %d digests, pinned %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%-15s digest = %q, pinned %q", name, got[name], w)
		}
	}
}
