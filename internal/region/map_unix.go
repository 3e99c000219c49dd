//go:build unix && !race

package region

import "syscall"

// Supported reports whether this build maps regions: true on unix outside
// the race detector.
const Supported = true

// mapAnon maps size zeroed bytes, private and anonymous, readable and
// writable.
func mapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapAnon unmaps what mapAnon mapped.
func unmapAnon(b []byte) error { return syscall.Munmap(b) }
