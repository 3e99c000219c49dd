// Package regiontest holds the test helpers that replace package region's
// seams: refuse every mapping, fill every scratch region given back to a
// pool with NaN, and make a released mapping fault when read.
package regiontest

import (
	"errors"
	"testing"

	"dust/internal/region"
)

// Refuse makes every mapping fail for the rest of the test: each region
// made meanwhile is a heap slice.
func Refuse(t testing.TB) {
	t.Cleanup(region.Replace(region.Seams{
		Map: func(int) ([]byte, error) { return nil, errors.ErrUnsupported },
	}))
}

// Poison fills the memory of every region given back to a pool during the
// test with 0xFF bytes, a NaN as float32 and as float64: what a search reads
// from a recycled region without writing it first shows up as NaN.
func Poison(t testing.TB) {
	t.Cleanup(region.Replace(region.Seams{
		Recycle: func(b []byte) {
			for i := range b {
				b[i] = 0xFF
			}
		},
	}))
}
