package snapshot

// Fixed-width format tests: round-trip identity through the strict
// decoder, the canonical-bytes property, Map serving the same answers
// as Open from an aliased mapping, the v1↔fixed-width cross-version
// oracle (both decodes yield the same canonical v1 bytes), the v2 and
// v3 failure-mode catalogues, and the byte-offset error context Open
// reports.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeV2Bytes encodes s with the fixed-width writer (format v3) in
// memory.
func encodeV2Bytes(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeV2(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestV2RoundTripIdentity(t *testing.T) {
	want := Capture(analysis(t))
	if len(want.Hybrids) == 0 || want.Rel6.Len() == 0 {
		t.Fatal("small world produced an empty snapshot; the round trip would be vacuous")
	}
	data := encodeV2Bytes(t, want)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, got)

	// Cross-version oracle: the canonical v1 bytes of the v2-decoded
	// snapshot equal the canonical v1 bytes of the original. Bytes()
	// equality is the repository-wide definition of "the same results".
	wantV1, err := Bytes(want)
	if err != nil {
		t.Fatal(err)
	}
	gotV1, err := Bytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantV1, gotV1) {
		t.Error("v2 round trip changed the canonical v1 encoding")
	}
}

func TestV2EncodeIsCanonical(t *testing.T) {
	s := Capture(analysis(t))
	a := encodeV2Bytes(t, s)
	b := encodeV2Bytes(t, s)
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeV2 is not deterministic")
	}
	decoded, err := readFixed(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := encodeV2Bytes(t, decoded); !bytes.Equal(a, c) {
		t.Error("EncodeV2(readFixed(x)) != x: the fixed-width encoding is not a fixed point")
	}
}

func TestMapServesInPlace(t *testing.T) {
	want := Capture(analysis(t))
	path := filepath.Join(t.TempDir(), "world.snap2")
	if err := WriteFileV2(path, want); err != nil {
		t.Fatal(err)
	}
	m, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, want, m)
	// Every product answers identically through the mapped form: the
	// canonical v1 bytes re-encoded from the aliased slices must match.
	wantV1, err := Bytes(want)
	if err != nil {
		t.Fatal(err)
	}
	gotV1, err := Bytes(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantV1, gotV1) {
		t.Error("mapped snapshot re-encodes differently from the original")
	}
	for _, h := range want.Hybrids {
		if got := m.Rel6.GetKey(h.Key); got != h.V6 {
			t.Errorf("hybrid %s: mapped Rel6 says %s, want %s", h.Key, got, h.V6)
		}
	}
	// The mapping survives deletion of the file (the hot-reload rename
	// case) until Close, which is idempotent.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if m.Rel4.Len() != want.Rel4.Len() {
		t.Error("mapping unusable after file deletion")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapRejectsV1(t *testing.T) {
	a := analysis(t)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	_, err := Map(path)
	if err == nil {
		t.Fatal("Map accepted a version-1 snapshot")
	}
	for _, sub := range []string{"cannot be mapped", path} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
}

// mustFailV2 routes corrupt v2 bytes through the strict reader,
// requiring a descriptive error and no panic.
func mustFailV2(t *testing.T, name string, data []byte, wantSub string) {
	t.Helper()
	s, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: Read succeeded (%+v), want error", name, s)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Errorf("%s: error %q does not mention %q", name, err, wantSub)
	}
}

// v2Bytes encodes s as a version-2 artifact.
func v2Bytes(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeV2(&buf, s); err != nil {
		t.Fatal(err)
	}
	v2, err := DowngradeV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return v2
}

func TestV2FailureModes(t *testing.T) {
	valid := v2Bytes(t, Capture(analysis(t)))
	lay, err := parse(valid)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(edit func(b []byte)) []byte {
		b := bytes.Clone(valid)
		edit(b)
		return b
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{v2MinSize - 1, len(valid) / 2, len(valid) - 1} {
			mustFailV2(t, "truncated", valid[:n], "snapshot")
		}
	})
	t.Run("nonzero flags", func(t *testing.T) {
		mustFailV2(t, "flags", mut(func(b []byte) { b[6] = 1 }), "never compressed")
	})
	t.Run("bad section count", func(t *testing.T) {
		mustFailV2(t, "nsec", mut(func(b []byte) { b[7] = 3 }), "section count")
	})
	t.Run("bad trailer", func(t *testing.T) {
		mustFailV2(t, "trailer", mut(func(b []byte) { b[len(b)-1] = 'X' }), "bad sentinel")
	})
	t.Run("misaligned section offset", func(t *testing.T) {
		mustFailV2(t, "align", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:], uint64(lay.off[0]+1))
		}), "out of bounds")
	})
	t.Run("offset past EOF", func(t *testing.T) {
		mustFailV2(t, "bounds", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8+16*secHybrids:], uint64(len(valid)))
		}), "out of bounds")
	})
	t.Run("implausible count", func(t *testing.T) {
		mustFailV2(t, "count", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8+16*secLinks4+8:], maxCount+1)
		}), "implausible count")
	})
	t.Run("key/rel counts disagree", func(t *testing.T) {
		// Shrinking the rel4rels count keeps it in bounds but breaks the
		// pairing invariant.
		if lay.cnt[secRel4Rels] == 0 {
			t.Skip("empty rel4 table")
		}
		mustFailV2(t, "pair", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8+16*secRel4Rels+8:], uint64(lay.cnt[secRel4Rels]-1))
		}), "counts disagree")
	})
	t.Run("non-canonical placement", func(t *testing.T) {
		// Both rel tables pointed at the same (valid) keys section: Map
		// would serve it, the strict reader rejects it.
		mustFailV2(t, "placement", mut(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8+16*secRel6Keys:], uint64(lay.off[secRel4Keys]))
			binary.LittleEndian.PutUint64(b[8+16*secRel6Keys+8:], uint64(lay.cnt[secRel4Keys]))
			binary.LittleEndian.PutUint64(b[8+16*secRel6Rels:], uint64(lay.off[secRel4Rels]))
			binary.LittleEndian.PutUint64(b[8+16*secRel6Rels+8:], uint64(lay.cnt[secRel4Rels]))
		}), "canonical offset")
	})
	t.Run("unsorted rel table", func(t *testing.T) {
		if lay.cnt[secRel4Keys] < 2 {
			t.Skip("rel4 table too small")
		}
		mustFailV2(t, "unsorted", mut(func(b []byte) {
			a := binary.LittleEndian.Uint64(b[lay.off[secRel4Keys]:])
			z := binary.LittleEndian.Uint64(b[lay.off[secRel4Keys]+8:])
			binary.LittleEndian.PutUint64(b[lay.off[secRel4Keys]:], z)
			binary.LittleEndian.PutUint64(b[lay.off[secRel4Keys]+8:], a)
		}), "out of canonical order")
	})
	t.Run("invalid relationship code", func(t *testing.T) {
		if lay.cnt[secRel4Rels] == 0 {
			t.Skip("empty rel4 table")
		}
		mustFailV2(t, "rel", mut(func(b []byte) {
			b[lay.off[secRel4Rels]] = 0x7F
		}), "invalid relationship code")
	})
	t.Run("invalid hybrid class", func(t *testing.T) {
		if lay.cnt[secHybrids] == 0 {
			t.Skip("no hybrids")
		}
		mustFailV2(t, "class", mut(func(b []byte) {
			b[lay.off[secHybrids]+10] = 0x7F
		}), "invalid hybrid class")
	})
	t.Run("nonzero hybrid record padding", func(t *testing.T) {
		if lay.cnt[secHybrids] == 0 {
			t.Skip("no hybrids")
		}
		mustFailV2(t, "pad", mut(func(b []byte) {
			b[lay.off[secHybrids]+12] = 1
		}), "nonzero record padding")
	})
}

// TestOpenReportsPathAndOffset pins the satellite contract: a
// truncated artifact names the file and the payload byte position.
func TestOpenReportsPathAndOffset(t *testing.T) {
	s := Capture(analysis(t))
	var buf bytes.Buffer
	if err := Encode(&buf, s, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trunc.snap")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil {
		t.Fatal("Open accepted a truncated snapshot")
	}
	for _, sub := range []string{path, "payload byte"} {
		if !strings.Contains(err.Error(), sub) {
			t.Errorf("error %q does not mention %q", err, sub)
		}
	}
	// The reported offset must be a real position, not zero: cutting a
	// third off the end leaves the decoder deep into the payload.
	if strings.Contains(err.Error(), "payload byte 0)") ||
		strings.HasSuffix(err.Error(), "payload byte 0") {
		t.Errorf("error %q reports offset 0 for a deep truncation", err)
	}
}

// flipHybridClass returns a copy of a fixed-width artifact with the
// first hybrid's class byte set to an invalid code; ok is false when
// the artifact has no hybrids.
func flipHybridClass(data []byte) ([]byte, bool) {
	lay, err := parse(data)
	if err != nil || lay.cnt[secHybrids] == 0 {
		return nil, false
	}
	b := bytes.Clone(data)
	b[lay.off[secHybrids]+10] = 0xFF
	return b, true
}

// reseal returns a copy of a version-3 artifact with every section
// checksum recomputed from the directory as written, so a deliberate
// corruption reaches the payload checks behind the checksums. Sections
// whose directory entry is out of range are left alone.
func reseal(data []byte) []byte {
	b := bytes.Clone(data)
	if len(b) < v3HeaderSize || binary.BigEndian.Uint16(b[4:6]) != Version3 {
		return b
	}
	for i := 0; i < numSections; i++ {
		e := b[8+24*i:]
		off, cnt := binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:])
		if cnt > maxCount || off > uint64(len(b)) || cnt*uint64(recSize[i]) > uint64(len(b))-off {
			continue
		}
		binary.LittleEndian.PutUint32(e[16:], crc32.Checksum(b[off:off+cnt*uint64(recSize[i])], castagnoli))
	}
	return b
}

func TestV3FailureModes(t *testing.T) {
	s := Capture(analysis(t))
	valid := encodeV2Bytes(t, s)
	lay, err := parse(valid)
	if err != nil {
		t.Fatal(err)
	}
	if lay.version != Version3 {
		t.Fatalf("EncodeV2 wrote version %d, want %d", lay.version, Version3)
	}
	if lay.cnt[secHybrids] < 2 || lay.cnt[secASNs] < 2 {
		t.Fatal("small world too small for the index corruptions below")
	}
	mut := func(edit func(b []byte)) []byte {
		b := bytes.Clone(valid)
		edit(b)
		return b
	}
	u32 := func(b []byte, si, i int) []byte { return b[lay.off[si]+4*i:] }
	cases := []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"checksum catches a flipped class byte", mut(func(b []byte) {
			b[lay.off[secHybrids]+10] = 0xFF
		}), "hybrid list: checksum mismatch"},
		{"checksum catches a flipped index byte", mut(func(b []byte) {
			b[lay.off[secNeighbors]] ^= 1
		}), "neighbors: checksum mismatch"},
		{"stored checksum corrupted", mut(func(b []byte) {
			b[8+24*secStats+16] ^= 1
		}), "stats section: checksum mismatch"},
		{"nonzero directory padding", mut(func(b []byte) {
			b[8+24*secLinks4+20] = 1
		}), "nonzero directory padding"},
		{"resealed invalid hybrid class", reseal(mut(func(b []byte) {
			b[lay.off[secHybrids]+10] = 0xFF
		})), "invalid hybrid class"},
		{"resealed unsorted AS list", reseal(mut(func(b []byte) {
			binary.LittleEndian.PutUint32(u32(b, secASNs, 1), 0)
		})), "AS list"},
		{"resealed row offset past the neighbors", reseal(mut(func(b []byte) {
			binary.LittleEndian.PutUint32(u32(b, secRows, 1), 1<<30)
		})), "adjacency rows: offset"},
		{"resealed invalid plane bits", reseal(mut(func(b []byte) {
			b[lay.off[secPlanes]] = 4
		})), "neighbor planes: invalid plane bits"},
		{"resealed hybrid reference out of range", reseal(mut(func(b []byte) {
			binary.LittleEndian.PutUint32(u32(b, secHybByKey, 0), 1<<20)
		})), "hybrids by key: hybrid"},
		{"resealed class run mislabels a hybrid", reseal(mut(func(b []byte) {
			// Swap two class-run entries of different classes, if any;
			// otherwise break the run order.
			lo := binary.LittleEndian.Uint32(u32(b, secHybByClass, 0))
			hi := binary.LittleEndian.Uint32(u32(b, secHybByClass, lay.cnt[secHybByClass]-1))
			binary.LittleEndian.PutUint32(u32(b, secHybByClass, 0), hi)
			binary.LittleEndian.PutUint32(u32(b, secHybByClass, lay.cnt[secHybByClass]-1), lo)
		})), "hybrids by class"},
		{"resealed index disagreeing with its tables", reseal(mut(func(b []byte) {
			// Change a neighbor's plane bits to another valid value:
			// well-formed, but not what the link sections say.
			p := &b[lay.off[secPlanes]]
			if *p == PlaneV4 {
				*p = PlaneV4 | PlaneV6
			} else {
				*p = PlaneV4
			}
		})), "not the canonical encoding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustFailV2(t, tc.name, tc.data, tc.wantSub)
		})
	}
}

// TestMapRejectsWhatOpenRejects pins the crash fix: one flipped
// hybrid-class byte in a v2 file (no checksums) and in a v3 file is
// rejected by Map with an error naming the file, before anything could
// index it.
func TestMapRejectsWhatOpenRejects(t *testing.T) {
	v3 := encodeV2Bytes(t, Capture(analysis(t)))
	v2, err := DowngradeV2(v3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		wantSub string
	}{
		{"v2", v2, "invalid hybrid class"},
		{"v3", v3, "checksum mismatch"},
		{"v3 resealed", nil, "invalid hybrid class"},
	} {
		data := tc.data
		if data == nil {
			data = v3
		}
		bad, ok := flipHybridClass(data)
		if !ok {
			t.Fatal("no hybrids to corrupt")
		}
		if tc.data == nil {
			bad = reseal(bad)
		}
		path := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("%s: Open accepted a flipped class byte", tc.name)
		}
		m, err := Map(path)
		if err == nil {
			m.Close()
			t.Fatalf("%s: Map accepted a flipped class byte", tc.name)
		}
		for _, sub := range []string{tc.wantSub, path} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: Map error %q does not mention %q", tc.name, err, sub)
			}
		}
	}
}

// TestMapAliasesIndex checks that a mapped v3 file carries the index
// the builder derives, and that a mapped v2 file carries none (it is
// built on demand) yet answers identically.
func TestMapAliasesIndex(t *testing.T) {
	want := Capture(analysis(t))
	built := BuildIndex(want)
	dir := t.TempDir()
	v3 := encodeV2Bytes(t, want)
	v2, err := DowngradeV2(v3)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v3": v3, "v2": v2} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Map(path)
		if err != nil {
			t.Fatal(err)
		}
		if (m.index != nil) != (name == "v3") {
			t.Errorf("%s: mapped index present = %v", name, m.index != nil)
		}
		if got := m.Index(); !reflect.DeepEqual(normIndex(got), normIndex(built)) {
			t.Errorf("%s: mapped index differs from the builder's", name)
		}
		m.Close()
	}
}

// normIndex maps nil and empty sections to the same value so aliased
// (nil for empty sections) and built indexes compare equal.
func normIndex(x *Index) Index {
	n := *x
	for _, p := range []*[]uint32{&n.Rows, &n.HybByKey, &n.ClassRows, &n.HybByClass, &n.HybRows, &n.HybByEnd} {
		if len(*p) == 0 {
			*p = nil
		}
	}
	if len(n.ASNs) == 0 {
		n.ASNs = nil
	}
	if len(n.Neighbors) == 0 {
		n.Neighbors = nil
	}
	if len(n.Planes) == 0 {
		n.Planes = nil
	}
	return n
}

// TestValidateAllocatesNothing pins the validation pass Map runs on
// every load at zero allocations.
func TestValidateAllocatesNothing(t *testing.T) {
	data := encodeV2Bytes(t, Capture(analysis(t)))
	lay, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	s := view(data, lay)
	if n := testing.AllocsPerRun(20, func() {
		if err := validate(data, lay, s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validate: %v allocs/op, want 0", n)
	}
}

// TestPortableViewMatchesAlias covers the view Map uses where aliasing
// is unavailable: the heap copy of every section, index included,
// passes the same validation and equals the aliased view.
func TestPortableViewMatchesAlias(t *testing.T) {
	data := encodeV2Bytes(t, Capture(analysis(t)))
	lay, err := parse(data)
	if err != nil {
		t.Fatal(err)
	}
	heap := decodeFixed(data, lay, true)
	if err := validate(data, lay, heap); err != nil {
		t.Fatalf("portable view fails validation: %v", err)
	}
	aliased := view(data, lay)
	if !reflect.DeepEqual(normIndex(heap.Index()), normIndex(aliased.Index())) {
		t.Error("portable index differs from the aliased one")
	}
	if !reflect.DeepEqual(heap.Links4, aliased.Links4) || !reflect.DeepEqual(heap.Hybrids, aliased.Hybrids) {
		t.Error("portable sections differ from the aliased ones")
	}
}
