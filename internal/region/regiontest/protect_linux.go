package regiontest

import (
	"syscall"
	"testing"

	"dust/internal/region"
)

// Protect makes every region mapped during the test release its pages and
// protect them instead of unmapping them: a read of a region after it was
// released faults at once, where an unmapped address could have been
// mapped again since and read back without a fault. It reports whether
// released regions fault: false where the build maps nothing.
func Protect(t testing.TB) bool {
	t.Cleanup(region.Replace(region.Seams{
		Release: func(b []byte) error {
			if err := syscall.Madvise(b, syscall.MADV_DONTNEED); err != nil {
				return err
			}
			return syscall.Mprotect(b, syscall.PROT_NONE)
		},
	}))
	return region.Supported
}
