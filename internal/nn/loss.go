package nn

import "math"

// CosineEmbeddingLoss implements PyTorch's nn.CosineEmbeddingLoss with
// margin 0, the loss the paper fine-tunes with (§4):
//
//	L(e1, e2, 1) = 1 - cos(e1, e2)
//	L(e1, e2, 0) = max(0, cos(e1, e2))
//
// Gradients follow from d cos / d e1 = e2/(|e1||e2|) - cos * e1/|e1|^2.
type CosineEmbeddingLoss struct{}

// Loss returns the loss value and the gradients with respect to e1 and e2.
// A positive pair has label true.
func (CosineEmbeddingLoss) Loss(e1, e2 []float64, positive bool) (loss float64, g1, g2 []float64) {
	n := len(e1)
	g1 = make([]float64, n)
	g2 = make([]float64, n)

	var dot, n1sq, n2sq float64
	for i := 0; i < n; i++ {
		dot += float64(e1[i] * e2[i])
		n1sq += float64(e1[i] * e1[i])
		n2sq += float64(e2[i] * e2[i])
	}
	n1 := math.Sqrt(n1sq)
	n2 := math.Sqrt(n2sq)
	if n1 == 0 || n2 == 0 {
		// Degenerate embeddings carry no gradient; report the worst loss for
		// the label so training notices.
		if positive {
			return 1, g1, g2
		}
		return 0, g1, g2
	}
	cos := dot / (n1 * n2)

	// d cos / d e1[i] and symmetric for e2.
	dcos1 := func(i int) float64 { return e2[i]/(n1*n2) - cos*e1[i]/n1sq }
	dcos2 := func(i int) float64 { return e1[i]/(n1*n2) - cos*e2[i]/n2sq }

	if positive {
		loss = 1 - cos
		for i := 0; i < n; i++ {
			g1[i] = -dcos1(i)
			g2[i] = -dcos2(i)
		}
		return loss, g1, g2
	}
	if cos <= 0 {
		return 0, g1, g2
	}
	loss = cos
	for i := 0; i < n; i++ {
		g1[i] = dcos1(i)
		g2[i] = dcos2(i)
	}
	return loss, g1, g2
}
