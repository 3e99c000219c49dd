//go:build !unix || race

package region

import "errors"

// Supported reports whether this build maps regions. It does not: the
// platform has no anonymous mapping, or the build runs the race detector,
// whose runtime does not see mapped memory and so could not check the
// goroutines that fill a search's scratch. Every region is a heap slice.
const Supported = false

// mapAnon fails, so every region is a heap slice.
func mapAnon(int) ([]byte, error) { return nil, errors.ErrUnsupported }

// unmapAnon is never called: mapAnon maps nothing.
func unmapAnon([]byte) error { return nil }
