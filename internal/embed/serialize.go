package embed

import (
	"fmt"
	"strings"

	"dust/internal/par"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// BERT-style marker tokens used by the paper's serialization (§4).
const (
	CLS = "[CLS]"
	SEP = "[SEP]"
)

// SerializeTuple renders a tuple as the paper's Ser(t) string:
//
//	[CLS] c1 v1 [SEP] c2 v2 [SEP] ... [SEP] cn vn [SEP]
//
// Null values are skipped together with their header, mirroring Example 4
// where the Park Phone column (unaligned, hence null in the query schema)
// is left out of the serialization.
func SerializeTuple(headers, values []string) string {
	var b strings.Builder
	b.WriteString(CLS)
	for i, h := range headers {
		if i >= len(values) || values[i] == "" {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(h)
		b.WriteByte(' ')
		b.WriteString(values[i])
		b.WriteByte(' ')
		b.WriteString(SEP)
	}
	return b.String()
}

// TupleTokens tokenizes a serialized tuple for encoding: headers are tagged
// so that a header word and an identical value word produce distinct tokens
// (the model must be able to tell structure from content), and marker tokens
// are dropped.
func TupleTokens(headers, values []string) []string {
	var out []string
	for i, h := range headers {
		if i >= len(values) || values[i] == "" {
			continue
		}
		for _, t := range tokenize.Words(h) {
			out = append(out, "h:"+t)
		}
		out = append(out, tokenize.Words(values[i])...)
	}
	return out
}

// EncodeTuple embeds one tuple with this encoder using the paper's
// serialization.
func (e *Encoder) EncodeTuple(headers, values []string) []float64 {
	return e.EncodeTokens(TupleTokens(headers, values))
}

// EncodeTupleBatch embeds many tuples sharing one header schema across at
// most workers goroutines (workers <= 0 selects the GOMAXPROCS default,
// workers == 1 is the sequential path). An Encoder holds no state after
// construction; what its calls share is the package's token-vector tables
// (tokenvec.go), each owned by one call at a time and able to change only
// when a vector is derived, never its value. So the output is bit-identical
// to calling EncodeTuple row by row.
func (e *Encoder) EncodeTupleBatch(headers []string, rows [][]string, workers int) []vector.Vec {
	return par.Map(workers, len(rows), func(i int) vector.Vec {
		return e.EncodeTuple(headers, rows[i])
	})
}

// EncodeText tokenizes s and embeds it.
func (e *Encoder) EncodeText(s string) []float64 {
	return e.EncodeTokens(tokenize.Words(s))
}

// Fingerprint identifies the encoder's complete configuration — model
// name, dimension, hash seed, anisotropy, noise, and contextuality — in one
// stable string. Persisted indexes store it so that a saved index is only
// ever loaded by an encoder that would reproduce its embeddings bit for
// bit; any drift in the simulator defaults surfaces as a typed
// encoder-mismatch error instead of silently wrong similarity scores.
func (e *Encoder) Fingerprint() string {
	return fmt.Sprintf("%s/d%d/s%x/a%g/n%g/c%t",
		e.name, e.dim, e.seed, e.anisotropy, e.noise, e.contextual)
}
