//go:build !unix

package search

import "errors"

// mapAnon fails: this platform has no anonymous mapping, so every region
// is a heap slice.
func mapAnon(int) ([]byte, error) { return nil, errors.ErrUnsupported }

// unmapAnon is never called: mapAnon maps nothing.
func unmapAnon([]byte) error { return nil }
