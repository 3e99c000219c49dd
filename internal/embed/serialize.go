package embed

import (
	"context"
	"fmt"

	"dust/internal/par"
	"dust/internal/tokenize"
	"dust/internal/vector"
)

// TupleTokens tokenizes a tuple for encoding in the order of the paper's
// serialization (§4),
//
//	[CLS] c1 v1 [SEP] c2 v2 [SEP] ... [SEP] cn vn [SEP]
//
// with the marker tokens dropped. Headers are tagged so that a header word
// and an identical value word produce distinct tokens (the model must be
// able to tell structure from content). Null values are skipped together
// with their header, mirroring Example 4, where the Park Phone column
// (unaligned, hence null in the query schema) is left out of the
// serialization.
func TupleTokens(headers, values []string) []string {
	return NewTupleSchema(headers).AppendTokens(nil, values)
}

// TupleSchema is a header row tokenized once, for the many tuples of one
// schema: the c1 … cn of every Ser(t) in a batch.
type TupleSchema struct {
	headers [][]string // each header's "h:"-tagged words
}

// NewTupleSchema tags the words of every header.
func NewTupleSchema(headers []string) *TupleSchema {
	s := &TupleSchema{headers: make([][]string, len(headers))}
	for i, h := range headers {
		for _, t := range tokenize.Words(h) {
			s.headers[i] = append(s.headers[i], "h:"+t)
		}
	}
	return s
}

// AppendTokens appends TupleTokens(headers, values) to dst. Value tokens
// may be substrings of the values (tokenize.AppendWords).
func (s *TupleSchema) AppendTokens(dst []string, values []string) []string {
	for i, h := range s.headers {
		if i >= len(values) || values[i] == "" {
			continue
		}
		dst = append(dst, h...)
		dst = tokenize.AppendWords(dst, values[i])
	}
	return dst
}

// EncodeRows embeds every row as encode(out, AppendTokens(buf, row)) into
// dst, row-major: row i's vector is out = dst[i*dim:(i+1)*dim], with dim =
// len(dst)/len(rows), whatever dst held before. It runs across at most
// workers goroutines (workers <= 0 selects the GOMAXPROCS default, workers
// == 1 is the sequential path), one token buffer per chunk of rows. encode
// must overwrite all of out and keep neither argument, and it runs
// concurrently when workers > 1. Once ctx is cancelled the remaining rows
// are skipped and ctx.Err() is returned; a row already being encoded
// finishes.
func (s *TupleSchema) EncodeRows(ctx context.Context, rows [][]string, workers int, dst []float64, encode func(out vector.Vec, tokens []string)) error {
	dim := 0
	if len(rows) > 0 {
		dim = len(dst) / len(rows)
	}
	done := ctx.Done()
	par.ForChunks(workers, len(rows), func(lo, hi int) {
		var buf []string
		for i := lo; i < hi; i++ {
			select {
			case <-done:
				return
			default:
			}
			buf = s.AppendTokens(buf[:0], rows[i])
			encode(dst[i*dim:(i+1)*dim:(i+1)*dim], buf)
		}
	})
	return ctx.Err()
}

// SplitRows returns dst's rows of dim float64s each, capacity-capped so
// that an append to one never runs into the next.
func SplitRows(dst []float64, dim int) []vector.Vec {
	n := 0
	if dim > 0 {
		n = len(dst) / dim
	}
	out := make([]vector.Vec, n)
	for i := range out {
		out[i] = dst[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// EncodeTuple embeds one tuple with this encoder using the paper's
// serialization.
func (e *Encoder) EncodeTuple(headers, values []string) []float64 {
	return e.EncodeTokens(TupleTokens(headers, values))
}

// EncodeTupleBatch embeds many tuples sharing one header schema, tokenizing
// the headers once (TupleSchema.EncodeRows), into one heap array split into
// rows. An Encoder holds no state after construction; what its calls share
// is the package's token-vector tables (tokenvec.go), each owned by one call
// at a time and able to change only when a vector is derived, never its
// value. So on the nil error path the output is bit-identical to calling
// EncodeTuple row by row.
func (e *Encoder) EncodeTupleBatch(ctx context.Context, headers []string, rows [][]string, workers int) ([]vector.Vec, error) {
	dst := make([]float64, len(rows)*e.dim)
	if err := e.EncodeTupleRows(ctx, headers, rows, workers, dst); err != nil {
		return nil, err
	}
	return SplitRows(dst, e.dim), nil
}

// EncodeTupleRows is EncodeTupleBatch writing the vectors row-major into
// dst, len(rows)*Dim() long, instead of allocating them: the pipeline hands
// it a scratch region.
func (e *Encoder) EncodeTupleRows(ctx context.Context, headers []string, rows [][]string, workers int, dst []float64) error {
	return NewTupleSchema(headers).EncodeRows(ctx, rows, workers, dst, e.EncodeTokensInto)
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
