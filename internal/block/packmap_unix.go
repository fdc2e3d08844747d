//go:build unix

package block

import (
	"fmt"
	"os"
	"syscall"
)

// mapVolume maps the first n bytes of f read-only and shared, so writes
// to the file show through it. Pages past the end of the file are
// reserved address space until appends reach them.
func mapVolume(f *os.File, n int64) ([]byte, error) {
	if int64(int(n)) != n {
		return nil, fmt.Errorf("block: packstore: a %d-byte mapping does not fit this address space", n)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, int(n), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("block: packstore: mmap %s: %w", f.Name(), err)
	}
	return m, nil
}

// unmapVolume releases a mapping mapVolume made. munmap fails only on
// a range that is not a mapping, which no caller passes.
func unmapVolume(m []byte) { _ = syscall.Munmap(m) }
