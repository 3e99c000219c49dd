package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(3, 2, rng)
	y := l.Forward([]float64{1, 0, -1}, false)
	if len(y) != 2 {
		t.Fatalf("output dim = %d, want 2", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Linear with wrong input dim did not panic")
		}
	}()
	l.Forward([]float64{1}, false)
}

// Numerical gradient check of Linear+Tanh composition against backprop.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := &Network{Layers: []Layer{NewLinear(4, 3, rng), &Tanh{}, NewLinear(3, 2, rng)}}
	x := []float64{0.5, -0.3, 0.8, 0.1}

	// Scalar objective: sum of outputs.
	objective := func() float64 {
		y := net.Forward(x, false)
		var s float64
		for _, v := range y {
			s += v
		}
		return s
	}

	net.ZeroGrad()
	// Backward needs cached activations, which only a train=true Forward
	// records (the net has no dropout, so outputs match eval mode).
	y := net.Forward(x, true)
	ones := make([]float64, len(y))
	for i := range ones {
		ones[i] = 1
	}
	net.Backward(ones)

	const eps = 1e-6
	for pi, p := range net.Params() {
		for j := range p.W {
			orig := p.W[j]
			p.W[j] = orig + eps
			up := objective()
			p.W[j] = orig - eps
			down := objective()
			p.W[j] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-p.G[j]) > 1e-5 {
				t.Fatalf("param %d[%d]: numeric grad %v, backprop %v", pi, j, numeric, p.G[j])
			}
		}
	}
}

func TestCosineEmbeddingLossValues(t *testing.T) {
	var l CosineEmbeddingLoss
	a := []float64{1, 0}
	b := []float64{1, 0}
	c := []float64{0, 1}
	if loss, _, _ := l.Loss(a, b, true); math.Abs(loss) > 1e-12 {
		t.Errorf("positive identical loss = %v, want 0", loss)
	}
	if loss, _, _ := l.Loss(a, c, true); math.Abs(loss-1) > 1e-12 {
		t.Errorf("positive orthogonal loss = %v, want 1", loss)
	}
	if loss, _, _ := l.Loss(a, b, false); math.Abs(loss-1) > 1e-12 {
		t.Errorf("negative identical loss = %v, want 1", loss)
	}
	if loss, _, _ := l.Loss(a, c, false); loss != 0 {
		t.Errorf("negative orthogonal loss = %v, want 0", loss)
	}
	neg := []float64{-1, 0}
	if loss, _, _ := l.Loss(a, neg, false); loss != 0 {
		t.Errorf("negative opposite loss = %v, want 0 (clamped)", loss)
	}
}

func TestCosineEmbeddingLossGradientNumeric(t *testing.T) {
	var l CosineEmbeddingLoss
	e1 := []float64{0.3, -0.7, 0.2}
	e2 := []float64{0.5, 0.4, -0.1}
	for _, positive := range []bool{true, false} {
		_, g1, g2 := l.Loss(e1, e2, positive)
		const eps = 1e-6
		for i := range e1 {
			orig := e1[i]
			e1[i] = orig + eps
			up, _, _ := l.Loss(e1, e2, positive)
			e1[i] = orig - eps
			down, _, _ := l.Loss(e1, e2, positive)
			e1[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-g1[i]) > 1e-5 {
				t.Errorf("positive=%v g1[%d]: numeric %v, analytic %v", positive, i, numeric, g1[i])
			}
		}
		for i := range e2 {
			orig := e2[i]
			e2[i] = orig + eps
			up, _, _ := l.Loss(e1, e2, positive)
			e2[i] = orig - eps
			down, _, _ := l.Loss(e1, e2, positive)
			e2[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-g2[i]) > 1e-5 {
				t.Errorf("positive=%v g2[%d]: numeric %v, analytic %v", positive, i, numeric, g2[i])
			}
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDropout(0.5, rng)
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	eval := d.Forward(x, false)
	for i := range eval {
		if eval[i] != 1 {
			t.Fatal("dropout in eval mode must be identity")
		}
	}
	train := d.Forward(x, true)
	zeros := 0
	for _, v := range train {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving activation = %v, want 2 (inverted dropout)", v)
		}
	}
	if zeros == 0 {
		t.Error("dropout with p=0.5 on 8 units dropped nothing (unlucky seed or bug)")
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimize (w-3)^2 with Adam.
	w := []float64{0}
	g := []float64{0}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step([]Param{{w, g}})
	}
	if math.Abs(w[0]-3) > 0.01 {
		t.Errorf("Adam converged to %v, want 3", w[0])
	}
}

// The core fine-tuning scenario in miniature: pairs with matching one-hot
// prefixes are positive, mismatched prefixes negative. Training must
// separate them in cosine space.
func TestTrainSiameseSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 8
	mkVec := func(class int) []float64 {
		v := make([]float64, dim)
		v[class] = 1
		for i := range v {
			v[i] += rng.NormFloat64() * 0.05
		}
		return v
	}
	// Negative pairs must cover every class combination in both splits,
	// otherwise the net can exploit the gap (e.g. merge classes that never
	// appear together as a negative pair).
	var train, val []Pair
	for i := 0; i < 200; i++ {
		c1 := i % 4
		c2 := (c1 + 1 + i%3) % 4 // cycles through all off-diagonal pairs
		train = append(train, Pair{mkVec(c1), mkVec(c1), true})
		train = append(train, Pair{mkVec(c1), mkVec(c2), false})
	}
	for i := 0; i < 40; i++ {
		c1 := i % 4
		c2 := (c1 + 1 + i%3) % 4
		val = append(val, Pair{mkVec(c1), mkVec(c1), true})
		val = append(val, Pair{mkVec(c1), mkVec(c2), false})
	}
	net := &Network{Layers: []Layer{
		NewLinear(dim, 16, rng),
		&Tanh{},
		NewDropout(0.1, rng),
		NewLinear(16, 8, rng),
	}}
	cfg := TrainConfig{Epochs: 30, Patience: 10, LR: 0.01, BatchSize: 16, Seed: 1}
	best := TrainSiamese(net, train, val, cfg)
	if best > 0.2 {
		t.Errorf("best validation loss = %v, want < 0.2 after training", best)
	}

	// Check classification at the paper's 0.7 cosine-distance threshold.
	var loss CosineEmbeddingLoss
	correct := 0
	for _, p := range val {
		e1 := net.Forward(p.X1, false)
		e1c := make([]float64, len(e1))
		copy(e1c, e1)
		e2 := net.Forward(p.X2, false)
		l, _, _ := loss.Loss(e1c, e2, true) // l = 1 - cos = cosine distance
		pred := l < 0.7
		if pred == p.Positive {
			correct++
		}
	}
	acc := float64(correct) / float64(len(val))
	if acc < 0.9 {
		t.Errorf("validation accuracy = %v, want >= 0.9", acc)
	}
}

func TestEarlyStoppingTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := &Network{Layers: []Layer{NewLinear(2, 2, rng)}}
	// Unlearnable noise: labels independent of inputs.
	var train, val []Pair
	for i := 0; i < 20; i++ {
		train = append(train, Pair{[]float64{rng.Float64(), rng.Float64()}, []float64{rng.Float64(), rng.Float64()}, i%2 == 0})
		val = append(val, Pair{[]float64{rng.Float64(), rng.Float64()}, []float64{rng.Float64(), rng.Float64()}, i%2 == 0})
	}
	epochs := 0
	cfg := TrainConfig{Epochs: 1000, Patience: 3, LR: 0.001, BatchSize: 4, Seed: 1,
		Progress: func(int, float64, float64) { epochs++ }}
	TrainSiamese(net, train, val, cfg)
	if epochs >= 1000 {
		t.Errorf("ran all %d epochs; early stopping never triggered", epochs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := &Network{Layers: []Layer{
		NewLinear(4, 8, rng),
		&Tanh{},
		NewDropout(0.2, rng),
		NewLinear(8, 3, rng),
	}}
	x := []float64{0.1, -0.2, 0.3, 0.9}
	want := net.Forward(x, false)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Forward(x, false)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("loaded net output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLoadGarbageErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob")), 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Load of garbage should error")
	}
}

func TestSharedCloneSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := &Network{Layers: []Layer{NewLinear(2, 2, rng), &Tanh{}, NewDropout(0.1, rng)}}
	clone := net.SharedClone()
	x := []float64{1, 2}
	a := net.Forward(x, false)
	b := clone.Forward(x, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clone output differs from original")
		}
	}
	// Mutating the original's weights must be visible through the clone.
	net.Layers[0].(*Linear).w[0] += 1
	b2 := clone.Forward(x, false)
	if b2[0] == b[0] {
		t.Error("clone does not share weights with original")
	}
}
