package snapshot

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Map opens a fixed-width snapshot (format version 2 or 3) by mapping
// the file and serving it in place: the relationship tables, link
// sections and hybrid list alias the mapped bytes, and so does the
// serve index of a version-3 file, which is therefore ready to answer
// without an index build. A version-2 file carries no index; the
// serving layer builds one when it installs the snapshot.
//
// Before aliasing anything Map validates the whole file in one linear
// pass that allocates nothing: header and directory, canonical section
// placement, the per-section CRC-32C checksums of version 3, and every
// payload invariant — key order, enum codes, value bounds, record
// padding, and the order and range of every index key, row and offset.
// A corrupted file is rejected with an error naming the section; a
// file Map accepts cannot panic the serving layer or misdirect its
// binary searches. Load cost is that pass, which reads the file from
// memory once (~25 ms for the 63 MB file of the 100k-AS scale tier on
// a 2-vCPU VM), plus one mmap syscall, with no allocation proportional
// to the snapshot. The strict reader
// (Open) runs the same pass and additionally rebuilds a version-3
// index to compare it with the file's.
//
// The caller owns the mapping and must Close the snapshot when done;
// internal/serve refcounts in-flight requests so a hot reload never
// unmaps a snapshot a handler still reads. Version-1 files cannot be
// mapped (varints have no fixed width); Map reports a distinguished
// error directing the caller to Open or a fixed-width re-export.
func Map(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fail := func(err error) (*Snapshot, error) {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fail(fmt.Errorf("snapshot: map: read header: %w", err))
	}
	if string(hdr[:4]) == magic {
		if v := binary.BigEndian.Uint16(hdr[4:6]); v == Version {
			return fail(fmt.Errorf("snapshot: map: version 1 snapshot cannot be mapped; load it with Open, or re-export it in the fixed-width format"))
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("snapshot: map: %w", err))
	}
	if fi.Size() < int64(v2MinSize) || fi.Size() > int64(int(^uint(0)>>1)) {
		return fail(fmt.Errorf("snapshot: map: implausible file size %d bytes", fi.Size()))
	}
	data, closer, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return fail(fmt.Errorf("snapshot: map: %w", err))
	}
	s, err := mapped(data)
	if err != nil {
		closer()
		return fail(err)
	}
	AttachCloser(s, closer)
	return s, nil
}

// mapped validates a fixed-width artifact and serves it from data.
func mapped(data []byte) (*Snapshot, error) {
	lay, err := parse(data)
	if err != nil {
		return nil, err
	}
	s := view(data, lay)
	if err := validate(data, lay, s); err != nil {
		return nil, err
	}
	if err := readStats(data, lay, s); err != nil {
		return nil, err
	}
	return s, nil
}
