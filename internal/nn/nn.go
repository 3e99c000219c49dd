// Package nn is the small neural-network substrate under the DUST
// fine-tuned tuple embedding model (paper §4). It provides exactly what the
// paper's fine-tuning architecture needs: fully-connected (linear) layers, a
// dropout layer, a tanh nonlinearity, the Adam optimizer, PyTorch's cosine
// embedding loss, and a training loop with patience-based early stopping
// (§6.3.3). Everything is float64 and deterministic given a seed, on every
// GOARCH: each product that feeds a sum is written float64(x*y), so no
// compiler fuses it.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one differentiable stage of a feed-forward network.
type Layer interface {
	// Forward maps the input to the output. When train is false the layer
	// must behave deterministically (dropout becomes the identity) and must
	// not mutate any layer state: inference forwards may run concurrently
	// (e.g. batch tuple encoding and concurrent pipeline queries).
	// Activations are cached for Backward only when train is true.
	Forward(x []float64, train bool) []float64
	// Backward receives dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients internally. It must be called right after the
	// train=true Forward whose activations it needs.
	Backward(grad []float64) []float64
	// Params returns parameter/gradient pairs for the optimizer; layers
	// without parameters return nil.
	Params() []Param
}

// Param couples a parameter slice with its gradient accumulator.
type Param struct {
	W, G []float64
}

// Linear is a fully connected layer: y = W*x + b.
type Linear struct {
	In, Out int
	w, b    []float64
	gw, gb  []float64
	x       []float64 // cached input for backward
}

// NewLinear creates a linear layer with Xavier-uniform initialized weights.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.w {
		l.w[i] = (uniform(rng)*2 - 1) * limit
	}
	return l
}

// uniform is rng.Float64 kept out of line: inlined, its exact product
// float64(n)*2⁻⁶³ is fused on arm64 into NewLinear's f*2 - 1 (compiled as
// f + f - 1), which keeps the bits but fails the arm64 FMADDD gate.
//
//go:noinline
func uniform(rng *rand.Rand) float64 { return rng.Float64() }

// Forward implements Layer.
func (l *Linear) Forward(x []float64, train bool) []float64 {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear input dim %d, want %d", len(x), l.In))
	}
	if train {
		l.x = x
	}
	y := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		row := l.w[o*l.In : (o+1)*l.In]
		s := l.b[o]
		for i, xi := range x {
			s += float64(row[i] * xi)
		}
		y[o] = s
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(grad []float64) []float64 {
	dx := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := grad[o]
		if g == 0 {
			continue
		}
		row := l.w[o*l.In : (o+1)*l.In]
		grow := l.gw[o*l.In : (o+1)*l.In]
		for i, xi := range l.x {
			grow[i] += float64(g * xi)
			dx[i] += float64(g * row[i])
		}
		l.gb[o] += g
	}
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []Param {
	return []Param{{l.w, l.gw}, {l.b, l.gb}}
}

// Tanh is an element-wise tanh activation.
type Tanh struct {
	y []float64
}

// Forward implements Layer.
func (t *Tanh) Forward(x []float64, train bool) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	if train {
		t.y = y
	}
	return y
}

// Backward implements Layer.
func (t *Tanh) Backward(grad []float64) []float64 {
	dx := make([]float64, len(grad))
	for i, g := range grad {
		dx[i] = g * (1 - float64(t.y[i]*t.y[i]))
	}
	return dx
}

// Params implements Layer.
func (t *Tanh) Params() []Param { return nil }

// Dropout zeroes each activation with probability P during training and
// scales survivors by 1/(1-P) (inverted dropout); at inference it is the
// identity. The paper's fine-tuning architecture appends a dropout layer to
// the transformer output (§4).
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask []float64
}

// NewDropout creates a dropout layer with drop probability p.
func NewDropout(p float64, rng *rand.Rand) *Dropout {
	return &Dropout{P: p, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x []float64, train bool) []float64 {
	if !train {
		// Identity, and no state writes: inference must stay race-free.
		return x
	}
	if d.P <= 0 {
		d.mask = nil
		return x
	}
	y := make([]float64, len(x))
	d.mask = make([]float64, len(x))
	keep := 1 - d.P
	for i, v := range x {
		if d.rng.Float64() < keep {
			d.mask[i] = 1 / keep
			y[i] = v / keep
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(grad []float64) []float64 {
	if d.mask == nil {
		return grad
	}
	dx := make([]float64, len(grad))
	for i, g := range grad {
		dx[i] = g * d.mask[i]
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []Param { return nil }

// Network is a feed-forward stack of layers.
type Network struct {
	Layers []Layer
}

// Forward runs the stack.
func (n *Network) Forward(x []float64, train bool) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Width returns the width the stack emits for inputs of width in: the last
// linear layer's Out, or in when it has none.
func (n *Network) Width(in int) int {
	for _, l := range n.Layers {
		if l, ok := l.(*Linear); ok {
			in = l.Out
		}
	}
	return in
}

// Backward propagates dL/d(output) through the stack, accumulating
// parameter gradients.
func (n *Network) Backward(grad []float64) []float64 {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all parameters of the stack.
func (n *Network) Params() []Param {
	var out []Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears every gradient accumulator.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		for i := range p.G {
			p.G[i] = 0
		}
	}
}

// SharedClone returns a network whose layers share this network's
// parameters and gradient accumulators but keep independent activation
// caches. Siamese training forwards the two branches of a pair through two
// shared clones so each branch's backward sees its own activations while
// gradients accumulate into the same buffers.
func (n *Network) SharedClone() *Network {
	out := &Network{Layers: make([]Layer, len(n.Layers))}
	for i, l := range n.Layers {
		switch l := l.(type) {
		case *Linear:
			out.Layers[i] = &Linear{In: l.In, Out: l.Out, w: l.w, b: l.b, gw: l.gw, gb: l.gb}
		case *Tanh:
			out.Layers[i] = &Tanh{}
		case *Dropout:
			out.Layers[i] = &Dropout{P: l.P, rng: l.rng}
		default:
			panic(fmt.Sprintf("nn: SharedClone: unsupported layer type %T", l))
		}
	}
	return out
}
