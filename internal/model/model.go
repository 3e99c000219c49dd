package model

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"dust/internal/datagen"
	"dust/internal/embed"
	"dust/internal/nn"
	"dust/internal/vector"
)

// ClassifyThreshold is the cosine-distance threshold under which a tuple
// pair is predicted unionable. The paper selects 0.7 on the validation set
// (§6.3.1) and uses it for every model.
const ClassifyThreshold = 0.7

// Model is a trained tuple embedding model: a frozen featurizer plus the
// fine-tuned head.
type Model struct {
	name string
	feat *Featurizer
	net  *nn.Network
}

// Config controls fine-tuning.
type Config struct {
	Hidden  int     // width of the first linear layer
	OutDim  int     // embedding dimension emitted by the second linear layer
	Dropout float64 // dropout probability of the head
	Epochs  int     // max epochs (paper: 100)
	// Patience is the early-stopping patience in epochs (paper: 10).
	Patience int
	LR       float64
	Seed     int64
}

// DefaultConfig returns the laptop-scale analogue of the paper's training
// setup.
func DefaultConfig() Config {
	return Config{Hidden: 96, OutDim: 64, Dropout: 0.1, Epochs: 40, Patience: 10, LR: 0.01, Seed: 1}
}

// Train fine-tunes a model over labelled tuple pairs using the paper's
// architecture: frozen base (featurizer) -> dropout -> linear -> linear,
// optimized with the cosine embedding loss and early stopping on the
// validation split.
func Train(name string, feat *Featurizer, train, val []datagen.TuplePair, cfg Config) *Model {
	if cfg.Hidden <= 0 || cfg.OutDim <= 0 {
		def := DefaultConfig()
		if cfg.Hidden <= 0 {
			cfg.Hidden = def.Hidden
		}
		if cfg.OutDim <= 0 {
			cfg.OutDim = def.OutDim
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := &nn.Network{Layers: []nn.Layer{
		nn.NewDropout(cfg.Dropout, rng),
		nn.NewLinear(feat.Dim, cfg.Hidden, rng),
		nn.NewLinear(cfg.Hidden, cfg.OutDim, rng),
	}}
	m := &Model{name: name, feat: feat, net: net}

	toPairs := func(ps []datagen.TuplePair) []nn.Pair {
		out := make([]nn.Pair, len(ps))
		for i, p := range ps {
			out[i] = nn.Pair{
				X1:       feat.Features(p.Headers1, p.Values1),
				X2:       feat.Features(p.Headers2, p.Values2),
				Positive: p.Unionable,
			}
		}
		return out
	}
	nn.TrainSiamese(net, toPairs(train), toPairs(val), nn.TrainConfig{
		Epochs:    cfg.Epochs,
		Patience:  cfg.Patience,
		LR:        cfg.LR,
		BatchSize: 16,
		Seed:      cfg.Seed,
	})
	return m
}

// Name returns the model name (e.g. "dust-roberta").
func (m *Model) Name() string { return m.name }

// Dim returns the output embedding dimension.
func (m *Model) Dim() int {
	probe := m.net.Forward(make([]float64, m.feat.Dim), false)
	return len(probe)
}

// EncodeTuple embeds one tuple (inference mode: dropout disabled).
func (m *Model) EncodeTuple(headers, values []string) vector.Vec {
	return m.net.Forward(m.feat.Features(headers, values), false)
}

// EncodeTupleBatch embeds many tuples sharing one header schema, feeding the
// featurizer tokens from one embed.TupleSchema per batch. Inference
// forwards keep no state (nn layers cache activations only during training)
// and the featurizer hashes tokens without the embed package's encode
// kernel, so on the nil error path the batch is bit-identical to sequential
// EncodeTuple calls.
func (m *Model) EncodeTupleBatch(ctx context.Context, headers []string, rows [][]string, workers int) ([]vector.Vec, error) {
	return embed.NewTupleSchema(headers).EncodeRows(ctx, rows, workers, func(tokens []string) vector.Vec {
		return m.net.Forward(m.feat.tokenFeatures(tokens), false)
	})
}

// Accuracy evaluates pair classification accuracy (Equation 3 of the
// paper) at the given cosine-distance threshold for any tuple encoder.
func Accuracy(enc TupleEncoder, pairs []datagen.TuplePair, threshold float64) float64 {
	if len(pairs) == 0 {
		return 0
	}
	correct := 0
	for _, p := range pairs {
		d := vector.CosineDistance(
			enc.EncodeTuple(p.Headers1, p.Values1),
			enc.EncodeTuple(p.Headers2, p.Values2))
		if (d < threshold) == p.Unionable {
			correct++
		}
	}
	return float64(correct) / float64(len(pairs))
}

// TupleEncoder is anything that embeds a (headers, values) tuple; both the
// pre-trained simulators (embed.Encoder) and fine-tuned Models satisfy it.
type TupleEncoder interface {
	Name() string
	EncodeTuple(headers, values []string) vector.Vec
}

// BatchTupleEncoder is a TupleEncoder that can embed many tuples of one
// header schema concurrently, honouring ctx between rows. Both
// embed.Encoder and Model implement it.
type BatchTupleEncoder interface {
	TupleEncoder
	EncodeTupleBatch(ctx context.Context, headers []string, rows [][]string, workers int) ([]vector.Vec, error)
}

// EncodeBatch embeds every row with enc. Encoders exposing the batch
// surface run across workers goroutines; arbitrary TupleEncoders are not
// guaranteed concurrency-safe, so they fall back to a sequential loop.
// Either way the output is index-aligned with rows and identical to
// per-row EncodeTuple calls. It is EncodeBatchContext under a background
// context, which never errors.
func EncodeBatch(enc TupleEncoder, headers []string, rows [][]string, workers int) []vector.Vec {
	out, _ := EncodeBatchContext(context.Background(), enc, headers, rows, workers)
	return out
}

// EncodeBatchContext is EncodeBatch with a cancellation path: once ctx is
// cancelled the remaining rows are skipped and ctx.Err() is returned, so a
// caller serving queries under a deadline is not forced to embed an entire
// unioned tuple pool it no longer wants. On the nil error path the output
// is identical to EncodeBatch. A batch-capable encoder runs its own
// EncodeTupleBatch, which tokenizes the header row once for the batch and
// reuses one token buffer per chunk of rows across workers goroutines.
func EncodeBatchContext(ctx context.Context, enc TupleEncoder, headers []string, rows [][]string, workers int) ([]vector.Vec, error) {
	if b, ok := enc.(BatchTupleEncoder); ok {
		return b.EncodeTupleBatch(ctx, headers, rows, workers)
	}
	// Arbitrary TupleEncoders are not guaranteed concurrency-safe:
	// sequential loop, checking ctx between rows.
	out := make([]vector.Vec, len(rows))
	for i, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = enc.EncodeTuple(headers, r)
	}
	return out, nil
}

// Save persists the model (featurizer config + network weights).
func (m *Model) Save(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "dustmodel %s %d %d\n", m.name, m.feat.Dim, m.feat.Seed); err != nil {
		return err
	}
	return m.net.Save(w)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var name string
	var dim int
	var seed uint64
	if _, err := fmt.Fscanf(r, "dustmodel %s %d %d\n", &name, &dim, &seed); err != nil {
		return nil, fmt.Errorf("model: bad header: %w", err)
	}
	net, err := nn.Load(r, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	return &Model{name: name, feat: &Featurizer{Dim: dim, Seed: seed}, net: net}, nil
}
