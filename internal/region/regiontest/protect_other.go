//go:build !linux

package regiontest

import "testing"

// Protect leaves releases as they are, and reports false: protecting
// released pages is done on Linux only.
func Protect(testing.TB) bool { return false }
