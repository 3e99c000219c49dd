package nn

import (
	"math/rand"
)

// Pair is one fine-tuning data point: two feature vectors and a label
// (true = the tuples are unionable, paper §4 "Dataset Preparation").
type Pair struct {
	X1, X2   []float64
	Positive bool
}

// TrainConfig controls the siamese fine-tuning loop.
type TrainConfig struct {
	Epochs    int     // upper bound on epochs (paper: 100)
	Patience  int     // early-stopping patience on validation loss (paper: 10)
	LR        float64 // Adam learning rate
	BatchSize int     // gradient accumulation window
	Seed      int64   // shuffling seed
	// Progress, if non-nil, receives (epoch, trainLoss, valLoss) after each
	// epoch.
	Progress func(epoch int, trainLoss, valLoss float64)
}

// TrainSiamese fine-tunes net on labelled pairs with the cosine embedding
// loss, sharing weights across the two tuple encodings exactly as the paper
// does ("we pass each serialized tuple one after another through the
// model"). It returns the best validation loss observed. The network is
// left with the parameters of the final epoch; callers that need the best
// snapshot should keep validation small and patience tight, as the paper
// does.
func TrainSiamese(net *Network, train, val []Pair, cfg TrainConfig) float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := NewAdam(cfg.LR)
	var loss CosineEmbeddingLoss

	bestVal := valLoss(net, val)
	sinceBest := 0

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	// Two shared-weight branches: each keeps its own activation caches so
	// both backward passes are exact, while gradients accumulate into the
	// shared buffers (weight sharing, as in the paper's siamese setup).
	b1 := net.SharedClone()
	b2 := net.SharedClone()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		inBatch := 0
		net.ZeroGrad()
		for _, idx := range order {
			p := train[idx]
			e1 := b1.Forward(p.X1, true)
			e2 := b2.Forward(p.X2, true)
			l, g1, g2 := loss.Loss(e1, e2, p.Positive)
			epochLoss += l
			b1.Backward(g1)
			b2.Backward(g2)

			inBatch++
			if inBatch >= cfg.BatchSize {
				opt.Step(net.Params())
				net.ZeroGrad()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step(net.Params())
			net.ZeroGrad()
		}

		v := valLoss(net, val)
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(max(1, len(train))), v)
		}
		if v < bestVal-1e-6 {
			bestVal = v
			sinceBest = 0
		} else {
			sinceBest++
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				break
			}
		}
	}
	return bestVal
}

// valLoss computes the mean cosine-embedding loss over a validation set.
func valLoss(net *Network, val []Pair) float64 {
	if len(val) == 0 {
		return 0
	}
	var loss CosineEmbeddingLoss
	var sum float64
	for _, p := range val {
		e1 := net.Forward(p.X1, false)
		e1c := make([]float64, len(e1))
		copy(e1c, e1)
		e2 := net.Forward(p.X2, false)
		l, _, _ := loss.Loss(e1c, e2, p.Positive)
		sum += l
	}
	return sum / float64(len(val))
}
