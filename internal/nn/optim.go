package nn

import "math"

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m, v [][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter using its accumulated
// gradient, then the caller is expected to zero the gradients.
func (a *Adam) Step(params []Param) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.W))
			a.v[i] = make([]float64, len(p.W))
		}
	}
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.G {
			m[j] = float64(a.Beta1*m[j]) + float64((1-a.Beta1)*g)
			v[j] = float64(a.Beta2*v[j]) + float64((1-a.Beta2)*g*g)
			mh := m[j] / c1
			vh := v[j] / c2
			p.W[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}
