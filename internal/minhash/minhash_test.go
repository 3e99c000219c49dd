package minhash

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestExactJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"c", "d"}, 0},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 0.5},
		{nil, nil, 0},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 1}, // duplicates ignored
	}
	for _, c := range cases {
		if got := ExactJaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ExactJaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSignDeterministicAndEmpty(t *testing.T) {
	h := NewHasher(64)
	a := h.Sign([]string{"x", "y"})
	b := h.Sign([]string{"x", "y"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sign nondeterministic")
		}
	}
	empty := h.Sign(nil)
	for _, v := range empty {
		if v != math.MaxUint64 {
			t.Fatal("empty set signature should be all MaxUint64")
		}
	}
}

func TestEstimateApproximatesJaccard(t *testing.T) {
	h := NewHasher(256)
	mk := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	// 50 shared + 50 unique each => J = 50/150 = 1/3.
	a := append(mk("shared", 50), mk("onlyA", 50)...)
	b := append(mk("shared", 50), mk("onlyB", 50)...)
	est := Estimate(h.Sign(a), h.Sign(b))
	want := ExactJaccard(a, b)
	if math.Abs(est-want) > 0.1 {
		t.Errorf("Estimate = %v, exact = %v (tolerance 0.1 at k=256)", est, want)
	}
}

func TestEstimateEdgeCases(t *testing.T) {
	h := NewHasher(16)
	if Estimate(h.Sign([]string{"a"}), Signature{1, 2}) != 0 {
		t.Error("mismatched signature lengths should estimate 0")
	}
	if Estimate(nil, nil) != 0 {
		t.Error("empty signatures should estimate 0")
	}
	s := h.Sign([]string{"a", "b"})
	if Estimate(s, s) != 1 {
		t.Error("identical signatures should estimate 1")
	}
}

// Property: estimate is symmetric and within [0, 1].
func TestEstimateProperties(t *testing.T) {
	h := NewHasher(32)
	f := func(a, b []string) bool {
		sa, sb := h.Sign(a), h.Sign(b)
		e1, e2 := Estimate(sa, sb), Estimate(sb, sa)
		return e1 == e2 && e1 >= 0 && e1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ExactJaccard of a set with itself is 1 (for non-empty sets).
func TestJaccardSelfProperty(t *testing.T) {
	f := func(a []string) bool {
		if len(a) == 0 {
			return ExactJaccard(a, a) == 0
		}
		return ExactJaccard(a, a) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
