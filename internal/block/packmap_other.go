//go:build !unix

package block

import (
	"errors"
	"os"
)

// The pack store reads its volumes through memory mappings, which it
// makes with the unix mmap call only; elsewhere NewPackStore fails.
func mapVolume(*os.File, int64) ([]byte, error) {
	return nil, errors.New("block: packstore: needs a unix system to map its volume files")
}

func unmapVolume([]byte) {}
