package diversify

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dust/internal/vector"
)

// randomProblem builds a problem from quick-generated bytes so properties
// run over varied shapes.
func randomProblem(seedBytes []byte, k int) Problem {
	seed := int64(7)
	for _, b := range seedBytes {
		seed = seed*31 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(30)
	dim := 4
	mk := func() vector.Vec {
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	if k < 0 {
		k = -k
	}
	p := Problem{K: k%10 + 1, Dist: vector.Euclidean}
	for i := 0; i < n; i++ {
		p.Tuples = append(p.Tuples, mk())
	}
	for i := 0; i < 3; i++ {
		p.Query = append(p.Query, mk())
	}
	return p
}

// Property: Prune returns a sorted subset of the valid indices of size
// exactly min(s, n).
func TestPruneSubsetProperty(t *testing.T) {
	f := func(seedBytes []byte, s int) bool {
		p := randomProblem(seedBytes, 3).Normalized()
		if s < 0 {
			s = -s
		}
		s = s%40 + 1
		kept := Prune(p, s)
		want := s
		if want > len(p.Tuples) {
			want = len(p.Tuples)
		}
		if len(kept) != want {
			return false
		}
		for i, idx := range kept {
			if idx < 0 || idx >= len(p.Tuples) {
				return false
			}
			if i > 0 && kept[i] <= kept[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: DUST is deterministic — same problem, same selection.
func TestDUSTDeterministicProperty(t *testing.T) {
	f := func(seedBytes []byte, k int) bool {
		p := randomProblem(seedBytes, k)
		a := NewDUST().Select(p)
		b := NewDUST().Select(p)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: with RandomRep the selection is still well-formed and uses the
// same seed deterministically.
func TestRandomRepDeterministic(t *testing.T) {
	p := randomProblem([]byte{1, 2, 3}, 4)
	d := NewDUST()
	d.RandomRep = true
	d.RepSeed = 9
	a := d.Select(p)
	b := d.Select(p)
	if len(a) == 0 {
		t.Fatal("empty selection")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomRep nondeterministic for fixed seed")
		}
	}
}
