//go:build !amd64 && !arm64

package snapshot

// alias on architectures without the little-endian 64-bit layout
// guarantee declines, and Map falls back to copying the sections onto
// the heap before validating them — correct everywhere, zero-copy
// where it matters.
func alias(data []byte, lay *layout) (*Snapshot, bool) { return nil, false }
