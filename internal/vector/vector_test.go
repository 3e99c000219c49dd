package vector

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	cases := []struct {
		a, b Vec
		want float64
	}{
		{Vec{1, 2, 3}, Vec{4, 5, 6}, 32},
		{Vec{0, 0}, Vec{1, 1}, 0},
		{Vec{-1, 2}, Vec{3, 4}, 5},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched dimensions did not panic")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm(Vec{3, 4}); got != 5 {
		t.Errorf("Norm{3,4} = %v, want 5", got)
	}
	if got := Norm(Vec{0, 0, 0}); got != 0 {
		t.Errorf("Norm zero = %v, want 0", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine(Vec{1, 0}, Vec{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Cosine identical = %v, want 1", got)
	}
	if got := Cosine(Vec{1, 0}, Vec{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("Cosine orthogonal = %v, want 0", got)
	}
	if got := Cosine(Vec{1, 0}, Vec{-1, 0}); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Cosine opposite = %v, want -1", got)
	}
	if got := Cosine(Vec{0, 0}, Vec{1, 2}); got != 0 {
		t.Errorf("Cosine with zero vector = %v, want 0", got)
	}
}

func TestCosineDistanceSelfIsZero(t *testing.T) {
	v := Vec{0.3, -1.5, 2.2}
	if got := CosineDistance(v, v); !almostEqual(got, 0, 1e-12) {
		t.Errorf("CosineDistance(v, v) = %v, want 0", got)
	}
}

func TestEuclideanAndManhattan(t *testing.T) {
	a, b := Vec{1, 2}, Vec{4, 6}
	if got := Euclidean(a, b); got != 5 {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := Manhattan(a, b); got != 7 {
		t.Errorf("Manhattan = %v, want 7", got)
	}
}

func TestDistanceRegistry(t *testing.T) {
	for _, name := range DistanceNames() {
		fn, err := Distance(name)
		if err != nil {
			t.Fatalf("Distance(%q) error: %v", name, err)
		}
		if d := fn(Vec{1, 2}, Vec{1, 2}); !almostEqual(d, 0, 1e-12) {
			t.Errorf("%s distance of identical vectors = %v, want 0", name, d)
		}
	}
	if _, err := Distance("chebyshev"); err == nil {
		t.Error("Distance with unknown name should error")
	}
}

func TestAddSubScale(t *testing.T) {
	a, b := Vec{1, 2}, Vec{3, -4}
	if got := Add(a, b); got[0] != 4 || got[1] != -2 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); got[0] != -2 || got[1] != 6 {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(a, 2); got[0] != 2 || got[1] != 4 {
		t.Errorf("Scale = %v", got)
	}
	// Inputs must not be mutated.
	if a[0] != 1 || b[0] != 3 {
		t.Error("Add/Sub/Scale mutated their inputs")
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize(Vec{3, 4})
	if !almostEqual(Norm(v), 1, 1e-12) {
		t.Errorf("Normalize norm = %v, want 1", Norm(v))
	}
	z := Normalize(Vec{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("Normalize zero = %v, want zero vector", z)
	}
}

func TestMean(t *testing.T) {
	m := Mean([]Vec{{1, 2}, {3, 4}})
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("Mean = %v, want [2 3]", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Mean of empty set did not panic")
		}
	}()
	Mean(nil)
}

func TestClone(t *testing.T) {
	v := Vec{1, 2}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares backing array with original")
	}
}

// tame maps arbitrary quick-generated floats into a finite, moderate range
// so properties are not defeated by overflow to +/-Inf.
func tame(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Remainder(x, 1000)
	}
	return out
}

// Property: cosine similarity is symmetric and bounded in [-1, 1].
func TestCosineProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		av, bv := tame(a[:]), tame(b[:])
		c1, c2 := Cosine(av, bv), Cosine(bv, av)
		if !almostEqual(c1, c2, 1e-9) {
			return false
		}
		return c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: euclidean distance obeys the triangle inequality.
func TestEuclideanTriangleInequality(t *testing.T) {
	f := func(a, b, c [6]float64) bool {
		av, bv, cv := tame(a[:]), tame(b[:]), tame(c[:])
		ab := Euclidean(av, bv)
		bc := Euclidean(bv, cv)
		ac := Euclidean(av, cv)
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: manhattan >= euclidean >= 0 for any pair.
func TestDistanceOrderingProperty(t *testing.T) {
	f := func(a, b [6]float64) bool {
		av, bv := tame(a[:]), tame(b[:])
		e := Euclidean(av, bv)
		m := Manhattan(av, bv)
		return m >= e-1e-9 && e >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSquaredEuclideanMatchesEuclidean(t *testing.T) {
	a := Vec{0.3, -0.4, 0.86}
	b := Vec{-0.1, 0.2, 0.5}
	if got, want := Euclidean(a, b), math.Sqrt(SquaredEuclidean(a, b)); got != want {
		t.Errorf("Euclidean = %v, sqrt(SquaredEuclidean) = %v", got, want)
	}
	// For unit vectors, squared L2 must equal 2(1-cosine): the monotone
	// equivalence the HNSW candidate stage relies on.
	na, nb := Normalize(a), Normalize(b)
	if got, want := SquaredEuclidean(na, nb), 2*(1-Cosine(na, nb)); math.Abs(got-want) > 1e-12 {
		t.Errorf("unit-vector identity: %v vs %v", got, want)
	}
}

func TestCosineFusedKernel(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{-1, 0, 2}
	dot, na, nb := dotAndNorms(a, b)
	if dot != Dot(a, b) || na != Dot(a, a) || nb != Dot(b, b) {
		t.Errorf("dotAndNorms = (%v,%v,%v), want (%v,%v,%v)",
			dot, na, nb, Dot(a, b), Dot(a, a), Dot(b, b))
	}
}
