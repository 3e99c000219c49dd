//go:build unix

package search

import "syscall"

// mapAnon maps size zeroed bytes, private and anonymous, readable and
// writable.
func mapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapAnon unmaps what mapAnon mapped.
func unmapAnon(b []byte) error { return syscall.Munmap(b) }
