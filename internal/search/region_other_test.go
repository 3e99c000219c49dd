//go:build !linux

package search

import "testing"

// protectRegions leaves releases as they are: protecting released pages
// is done on Linux only.
func protectRegions(*testing.T) {}
