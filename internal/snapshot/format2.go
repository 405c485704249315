package snapshot

// Fixed-width formats: version 2 (tables only) and version 3 (tables
// plus the serve index), the layouts built for mmap serving.
//
// Version 1 is a varint stream: compact, but decoding is sequential
// and materializes every entry on the heap. The fixed-width formats
// trade ~2× wire size for direct reinterpretation: every section is an
// array of fixed-width little-endian records whose byte layout equals
// the Go in-memory layout on little-endian 64-bit machines (asserted at
// compile time in alias_le64.go), and a section directory in the
// header makes the artifact random-access. Map serves such a file by
// validating it in one linear pass and aliasing the mapped bytes in
// place: no decode, no per-entry heap objects, and for version 3 no
// index build either.
//
// # Wire format (version 3)
//
//	off 0   magic   "HYBS"                          4 bytes
//	off 4   version uint16 big-endian               3 (matches v1 sniffing)
//	off 6   flags   uint8                           0 (never compressed)
//	off 7   nsec    uint8                           17 sections
//	off 8   directory: nsec × { offset u64 LE, count u64 LE,
//	                            crc u32 LE (CRC-32C of the section), pad u32 = 0 }
//	        sections, each 8-byte aligned, zero-padded between:
//	  0 rel4keys   count × u64     packed canonical keys, strictly ascending
//	  1 rel4rels   count × u8      Rel codes, parallel to rel4keys
//	  2 rel6keys   count × u64
//	  3 rel6rels   count × u8
//	  4 links4     count × 16 B    { lo u32, hi u32, visibility u64 }, strictly ascending
//	  5 links6     count × 16 B
//	  6 hybrids    count × 24 B    { lo u32, hi u32, v4 u8, v6 u8,
//	                                 class u8, pad[5] = 0, visibility u64 }
//	  7 stats      count × u64     headline statistics words (below)
//	  8 asns       count × u32     every AS with a link, strictly ascending
//	  9 rows       (asns+1) × u32  CSR offsets of each AS's run in neighbors
//	 10 neighbors  count × u32     neighbor ASNs, each run strictly ascending
//	 11 planes     count × u8      plane bits of each neighbor link: 1 v4, 2 v6, 3 both
//	 12 hybbykey   hybrids × u32   hybrid indexes ordered by (canonical key, index)
//	 13 classrows  6 × u32         offsets into hybbyclass, one per class plus the end:
//	                               (classes+1), classes NotHybrid..HybridOther
//	 14 hybbyclass hybrids × u32   hybrid indexes grouped by class, list order within
//	 15 hybrows    (asns+1) × u32  per-AS offsets into hybbyend
//	 16 hybbyend   count × u32     hybrid indexes grouped by endpoint AS, list order within
//	trailer "SBYH"                                  last 4 bytes
//
// Version 2 is the same header with an 8-entry directory of 16-byte
// entries (offset and count only, no checksum) and sections 0–7. It is
// read forever but no longer written: EncodeV2 writes version 3.
//
// The stats section is 19+2k words: coverage (7), census
// (dualClassified, hybrid, k, then k × (class, count)), visibility
// (paths, pathsWithHybrid, Float64bits mean-hybrid-degree, Float64bits
// mean-dual-degree), valley (5). It is tiny and decoded eagerly even
// under Map.
//
// # Validation
//
// Map and the strict reader run the same validation pass, which
// allocates nothing: header fields, directory bounds and alignment,
// canonical section placement with zero padding, the per-section
// checksums (version 3), and every payload invariant — key order,
// enum codes, value bounds, record padding, and for the index the
// order of keys and rows and the range of every offset and hybrid
// reference. A file that passes cannot panic a reader or misdirect a
// binary search. The strict reader then copies the tables onto the
// heap and, for version 3, also rebuilds the index and requires the
// file to be exactly the canonical encoding of what it decoded.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
)

const (
	// Version2 is the fixed-width format without the serve index.
	Version2 = 2
	// Version3 is the fixed-width format with the serve index and
	// per-section checksums; EncodeV2 and WriteFileV2 write it.
	Version3 = 3

	numSections   = 17
	v2NumSections = 8
	v2HeaderSize  = 8 + v2NumSections*16
	v3HeaderSize  = 8 + numSections*24
	v2MinSize     = v2HeaderSize + len(trailer)
)

// Section indexes into the directory.
const (
	secRel4Keys = iota
	secRel4Rels
	secRel6Keys
	secRel6Rels
	secLinks4
	secLinks6
	secHybrids
	secStats
	secASNs
	secRows
	secNeighbors
	secPlanes
	secHybByKey
	secClassRows
	secHybByClass
	secHybRows
	secHybByEnd
)

// recSize is the fixed record width of each section in bytes.
var recSize = [numSections]int{8, 1, 8, 1, 16, 16, 24, 8, 4, 4, 4, 1, 4, 4, 4, 4, 4}

var secName = [numSections]string{
	"rel4 keys", "rel4 relationships", "rel6 keys", "rel6 relationships",
	"ipv4 links", "ipv6 links", "hybrid list", "stats section",
	"AS list", "adjacency rows", "neighbors", "neighbor planes", "hybrids by key",
	"class rows", "hybrids by class", "hybrid rows", "hybrids by endpoint",
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// align8 rounds up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// layout is the section directory of a fixed-width artifact.
type layout struct {
	version, nsec int
	off, cnt      [numSections]int
	size          int // total artifact size, trailer included
}

func (l *layout) headerSize() int {
	if l.version == Version2 {
		return v2HeaderSize
	}
	return v3HeaderSize
}

func (l *layout) entrySize() int {
	if l.version == Version2 {
		return 16
	}
	return 24
}

// sec returns the payload bytes of section i.
func (l *layout) sec(data []byte, i int) []byte {
	return data[l.off[i] : l.off[i]+l.cnt[i]*recSize[i]]
}

// canonicalLayout places sections with the given record counts
// contiguously in index order after the header.
func canonicalLayout(version int, cnt [numSections]int) *layout {
	l := &layout{version: version, nsec: numSections, cnt: cnt}
	if version == Version2 {
		l.nsec = v2NumSections
	}
	off := l.headerSize()
	for i := 0; i < l.nsec; i++ {
		l.off[i] = off
		off = align8(off + cnt[i]*recSize[i])
	}
	l.size = off + len(trailer)
	return l
}

// WriteFileV2 writes s to path in the fixed-width format (version 3)
// with the same atomic temp-and-rename discipline as WriteFile.
func WriteFileV2(path string, s *Snapshot) error {
	return encodeFileWith(path, s, EncodeV2)
}

// EncodeV2 serializes s in the fixed-width format, version 3: the
// tables plus the serve index, each section checksummed. It is the only
// fixed-width writer; version 2 is read but never written. The encoding
// is canonical — fixed section order, fixed offsets for given counts,
// zero padding, sorted census classes, an index that is a function of
// the tables — so equal snapshots produce identical bytes.
func EncodeV2(w io.Writer, s *Snapshot) error {
	if _, err := w.Write(encodeV3(s, s.Index())); err != nil {
		return fmt.Errorf("snapshot: encode v3: %w", err)
	}
	return nil
}

// encodeV3 lays out s and its index x as one version-3 artifact.
func encodeV3(s *Snapshot, x *Index) []byte {
	words := statsWords(s)
	lay := canonicalLayout(Version3, [numSections]int{
		tableLen(s.Rel4), tableLen(s.Rel4), tableLen(s.Rel6), tableLen(s.Rel6),
		len(s.Links4), len(s.Links6), len(s.Hybrids), len(words),
		len(x.ASNs), len(x.Rows), len(x.Neighbors), len(x.Planes), len(x.HybByKey),
		len(x.ClassRows), len(x.HybByClass), len(x.HybRows), len(x.HybByEnd),
	})
	buf := make([]byte, lay.size)
	le := binary.LittleEndian
	sec := func(i int) []byte { return lay.sec(buf, i) }

	putTable(sec(secRel4Keys), sec(secRel4Rels), s.Rel4)
	putTable(sec(secRel6Keys), sec(secRel6Rels), s.Rel6)
	putLinks(sec(secLinks4), s.Links4)
	putLinks(sec(secLinks6), s.Links6)
	hb := sec(secHybrids)
	for i, h := range s.Hybrids {
		b := hb[24*i:]
		le.PutUint32(b, uint32(h.Key.Lo))
		le.PutUint32(b[4:], uint32(h.Key.Hi))
		b[8], b[9], b[10] = byte(h.V4), byte(h.V6), byte(h.Class)
		le.PutUint64(b[16:], uint64(h.Visibility))
	}
	putU64s(sec(secStats), words)
	putU32s(sec(secASNs), x.ASNs)
	putU32s(sec(secRows), x.Rows)
	putU32s(sec(secNeighbors), x.Neighbors)
	copy(sec(secPlanes), x.Planes)
	putU32s(sec(secHybByKey), x.HybByKey)
	putU32s(sec(secClassRows), x.ClassRows)
	putU32s(sec(secHybByClass), x.HybByClass)
	putU32s(sec(secHybRows), x.HybRows)
	putU32s(sec(secHybByEnd), x.HybByEnd)

	copy(buf, magic)
	binary.BigEndian.PutUint16(buf[4:6], Version3)
	buf[7] = numSections
	for i := 0; i < numSections; i++ {
		e := buf[8+24*i:]
		le.PutUint64(e, uint64(lay.off[i]))
		le.PutUint64(e[8:], uint64(lay.cnt[i]))
		le.PutUint32(e[16:], crc32.Checksum(sec(i), castagnoli))
	}
	copy(buf[len(buf)-len(trailer):], trailer)
	return buf
}

func tableLen(t *intern.Table) int {
	if t == nil {
		return 0
	}
	return t.Len()
}

func putTable(keys, rels []byte, t *intern.Table) {
	if t == nil {
		return
	}
	putU64s(keys, t.PackedKeys())
	for i, r := range t.Rels() {
		rels[i] = byte(r)
	}
}

func putLinks(b []byte, ls []Link) {
	for i, l := range ls {
		binary.LittleEndian.PutUint32(b[16*i:], uint32(l.Key.Lo))
		binary.LittleEndian.PutUint32(b[16*i+4:], uint32(l.Key.Hi))
		binary.LittleEndian.PutUint64(b[16*i+8:], uint64(l.Visibility))
	}
}

func putU64s(b []byte, vs []uint64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
}

func putU32s[T ~uint32](b []byte, vs []T) {
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

// statsWords flattens the headline statistics into the stats-section
// word sequence (census classes sorted, matching the v1 encoder).
func statsWords(s *Snapshot) []uint64 {
	c, cs, v, vs := s.Coverage, s.Census, s.Visibility, s.Valley
	classes := make([]asrel.HybridClass, 0, len(cs.ByClass))
	for cl := range cs.ByClass {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	words := make([]uint64, 0, 19+2*len(classes))
	for _, n := range []int{c.Paths6, c.Links6, c.Links4, c.DualStack,
		c.Classified6, c.ClassifiedDual, c.ClassifiedDualBoth} {
		words = append(words, uint64(n))
	}
	words = append(words, uint64(cs.DualClassified), uint64(cs.Hybrid), uint64(len(classes)))
	for _, cl := range classes {
		words = append(words, uint64(cl), uint64(cs.ByClass[cl]))
	}
	words = append(words, uint64(v.Paths), uint64(v.PathsWithHybrid),
		math.Float64bits(v.MeanHybridEndpointDegree), math.Float64bits(v.MeanDualEndpointDegree))
	for _, n := range []int{vs.Total, vs.ValleyFree, vs.Valley, vs.Unclassified, vs.Necessary} {
		words = append(words, uint64(n))
	}
	return words
}

// DowngradeV2 rewrites a version-3 artifact as the version-2 artifact
// of the same snapshot: the eight table sections under a v2 directory,
// without the index and checksums. It exists so compatibility tests
// and the v2-vs-v3 readiness benchmark can produce v2 files from the
// single writer.
func DowngradeV2(data []byte) ([]byte, error) {
	lay, err := parse(data)
	if err != nil {
		return nil, err
	}
	if lay.version != Version3 {
		return nil, fmt.Errorf("snapshot: downgrade: version %d artifact, want %d", lay.version, Version3)
	}
	if err := validate(data, lay, view(data, lay)); err != nil {
		return nil, err
	}
	var cnt [numSections]int
	copy(cnt[:v2NumSections], lay.cnt[:v2NumSections])
	v2 := canonicalLayout(Version2, cnt)
	out := make([]byte, v2.size)
	copy(out, data[:8])
	binary.BigEndian.PutUint16(out[4:6], Version2)
	out[7] = v2NumSections
	for i := 0; i < v2NumSections; i++ {
		binary.LittleEndian.PutUint64(out[8+16*i:], uint64(v2.off[i]))
		binary.LittleEndian.PutUint64(out[8+16*i+8:], uint64(v2.cnt[i]))
		copy(v2.sec(out, i), lay.sec(data, i))
	}
	copy(out[len(out)-len(trailer):], trailer)
	return out, nil
}

// parse checks everything about a fixed-width artifact except the
// section payloads and their checksums: header fields, directory
// bounds and alignment, paired counts, canonical placement with zero
// padding, and the trailer.
func parse(data []byte) (*layout, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("snapshot: file too short (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a snapshot file)", data[:4])
	}
	lay := &layout{version: int(binary.BigEndian.Uint16(data[4:6]))}
	switch lay.version {
	case Version2:
		lay.nsec = v2NumSections
	case Version3:
		lay.nsec = numSections
	default:
		return nil, fmt.Errorf("snapshot: fixed-width parser given version %d", lay.version)
	}
	v, hdr := lay.version, lay.headerSize()
	if len(data) < hdr+len(trailer) {
		return nil, fmt.Errorf("snapshot: v%d: file too short (%d bytes, need at least %d)", v, len(data), hdr+len(trailer))
	}
	if data[6] != 0 {
		return nil, fmt.Errorf("snapshot: v%d: unknown flags %#x (fixed-width payloads are never compressed)", v, data[6])
	}
	if int(data[7]) != lay.nsec {
		return nil, fmt.Errorf("snapshot: v%d: section count %d, want %d", v, data[7], lay.nsec)
	}
	if string(data[len(data)-4:]) != trailer {
		return nil, fmt.Errorf("snapshot: v%d trailer: bad sentinel %q at byte offset %d (truncated or corrupted snapshot)", v, data[len(data)-4:], len(data)-4)
	}
	le := binary.LittleEndian
	es := lay.entrySize()
	limit := uint64(len(data) - len(trailer))
	for i := 0; i < lay.nsec; i++ {
		off := le.Uint64(data[8+es*i:])
		cnt := le.Uint64(data[8+es*i+8:])
		if cnt > maxCount {
			return nil, fmt.Errorf("snapshot: v%d section %d: implausible count %d", v, i, cnt)
		}
		if off%8 != 0 || off < uint64(hdr) || off > limit || cnt*uint64(recSize[i]) > limit-off {
			return nil, fmt.Errorf("snapshot: v%d section %d: out of bounds (offset %d, %d records of %d bytes in a %d-byte file)", v, i, off, cnt, recSize[i], len(data))
		}
		lay.off[i], lay.cnt[i] = int(off), int(cnt)
	}
	if lay.cnt[secRel4Keys] != lay.cnt[secRel4Rels] || lay.cnt[secRel6Keys] != lay.cnt[secRel6Rels] {
		return nil, fmt.Errorf("snapshot: v%d: relationship key/rel section counts disagree", v)
	}
	// Canonical placement: sections contiguous in index order with zero
	// padding and nothing between the last section and the trailer. A
	// directory that overlaps or reorders sections is corrupt, not an
	// alternate representation.
	off := hdr
	for i := 0; i < lay.nsec; i++ {
		if lay.off[i] != off {
			return nil, fmt.Errorf("snapshot: v%d section %d: at byte offset %d, want canonical offset %d", v, i, lay.off[i], off)
		}
		end := off + lay.cnt[i]*recSize[i]
		off = align8(end)
		for j := end; j < off; j++ {
			if data[j] != 0 {
				return nil, fmt.Errorf("snapshot: v%d section %d: nonzero padding at byte offset %d", v, i, j)
			}
		}
	}
	if off != len(data)-len(trailer) {
		return nil, fmt.Errorf("snapshot: v%d: %d bytes of trailing garbage before the trailer", v, len(data)-len(trailer)-off)
	}
	lay.size = len(data)
	if v == Version3 {
		for i := 0; i < lay.nsec; i++ {
			if pad := le.Uint32(data[8+es*i+20:]); pad != 0 {
				return nil, fmt.Errorf("snapshot: v3 section %d: nonzero directory padding %#x", i, pad)
			}
		}
	}
	return lay, nil
}

// view returns the typed sections of a parsed artifact, the index
// included for version 3: aliasing data where the platform allows,
// heap copies otherwise. Nothing in it is validated yet.
func view(data []byte, lay *layout) *Snapshot {
	if s, ok := alias(data, lay); ok {
		return s
	}
	return decodeFixed(data, lay, true)
}

// chunkBytes is the step of the validation pass: the record checks
// stream each step in from memory, and the checksum update then reads
// the same bytes from cache, so the file is read from memory once.
const chunkBytes = 64 << 10

// validate checks every section of s, the typed view of data, in one
// linear pass that allocates nothing: for version 3 the section's
// CRC-32C, and every payload invariant — key order, enum codes, value
// bounds and record padding of the tables, and for the index the order
// of keys and rows and the range of every offset and hybrid reference.
// Sections are checked in directory order, so an index section is only
// checked against sections already found valid. When a record check
// fails in a section whose checksum also fails, the checksum error is
// reported: the file is corrupt, not mis-written.
func validate(data []byte, lay *layout, s *Snapshot) error {
	v := validator{data: data, lay: lay, s: s}
	if x := s.index; x != nil {
		nAS, nH := len(x.ASNs), len(s.Hybrids)
		switch {
		case len(x.Rows) != nAS+1 || len(x.HybRows) != nAS+1 || len(x.Planes) != len(x.Neighbors):
			return fmt.Errorf("snapshot: index: %d ASes with %d adjacency and %d hybrid row offsets, %d neighbors with %d plane entries", nAS, len(x.Rows), len(x.HybRows), len(x.Neighbors), len(x.Planes))
		case len(x.HybByKey) != nH || len(x.HybByClass) != nH:
			return fmt.Errorf("snapshot: index: hybrid orders of %d and %d entries for %d hybrids", len(x.HybByKey), len(x.HybByClass), nH)
		case len(x.ClassRows) != numClasses+1:
			return fmt.Errorf("snapshot: index: %d class offsets, want %d", len(x.ClassRows), numClasses+1)
		}
	}
	for si := 0; si < lay.nsec; si++ {
		if err := v.section(si); err != nil {
			return err
		}
	}
	return nil
}

// validator carries the validation pass through the sections; run is
// the position of the current row or class while a grouped index
// section is walked.
type validator struct {
	data []byte
	lay  *layout
	s    *Snapshot
	run  int
}

func (v *validator) section(si int) error {
	n, rec := v.lay.cnt[si], recSize[si]
	sum := v.lay.version == Version3
	step := max(1, chunkBytes/rec)
	v.run = 0
	var crc uint32
	var bad error
	for lo := 0; lo < n; lo += step {
		hi := min(n, lo+step)
		if bad == nil {
			if bad = v.records(si, lo, hi); bad != nil && !sum {
				return bad
			}
		}
		if sum {
			crc = crc32.Update(crc, castagnoli, v.data[v.lay.off[si]+lo*rec:v.lay.off[si]+hi*rec])
		}
	}
	if sum {
		if want := binary.LittleEndian.Uint32(v.data[8+24*si+16:]); want != crc {
			return fmt.Errorf("snapshot: v3 %s: checksum mismatch (stored %#08x, computed %#08x; corrupted snapshot)", secName[si], want, crc)
		}
	}
	return bad
}

// records checks records lo..hi of section si. Earlier records of the
// section were checked by previous calls.
func (v *validator) records(si, lo, hi int) error {
	data, lay, s, x := v.data, v.lay, v.s, v.s.index
	at := func(k int) int { return lay.off[si] + recSize[si]*k }
	switch si {
	case secRel4Keys, secRel6Keys:
		t := s.Rel4
		if si == secRel6Keys {
			t = s.Rel6
		}
		keys := t.PackedKeys()
		var last uint64
		if lo > 0 {
			last = keys[lo-1]
		}
		for i, u := range keys[lo:hi] {
			if uint32(u>>32) > uint32(u) {
				return fmt.Errorf("snapshot: %s: link %s not in canonical order (byte offset %d)", secName[si], intern.Unpack(u), at(lo+i))
			}
			if lo+i > 0 && u <= last {
				return fmt.Errorf("snapshot: %s: link %s out of canonical order (byte offset %d)", secName[si], intern.Unpack(u), at(lo+i))
			}
			last = u
		}
	case secRel4Rels, secRel6Rels:
		if i := firstOutside(data[at(lo):at(hi)], 0, byte(asrel.S2S)); i >= 0 {
			return fmt.Errorf("snapshot: %s: invalid relationship code %d (byte offset %d)", secName[si], data[at(lo)+i], at(lo)+i)
		}
	case secLinks4, secLinks6:
		ls := s.Links4
		if si == secLinks6 {
			ls = s.Links6
		}
		var last uint64
		if lo > 0 {
			last = intern.Pack(ls[lo-1].Key)
		}
		for i := range ls[lo:hi] {
			l := &ls[lo+i]
			u := intern.Pack(l.Key)
			switch {
			case l.Key.Lo > l.Key.Hi:
				return fmt.Errorf("snapshot: %s: link %s not in canonical order (byte offset %d)", secName[si], l.Key, at(lo+i))
			case lo+i > 0 && u <= last:
				return fmt.Errorf("snapshot: %s: link %s out of canonical order (byte offset %d)", secName[si], l.Key, at(lo+i))
			case uint64(l.Visibility) > math.MaxInt64/2:
				return fmt.Errorf("snapshot: %s: implausible value %d (byte offset %d)", secName[si], uint64(l.Visibility), at(lo+i)+8)
			}
			last = u
		}
	case secHybrids:
		// Read as bytes: the record's five bytes of padding have no
		// typed name.
		for i := lo; i < hi; i++ {
			o := at(i)
			lk, hk := binary.LittleEndian.Uint32(data[o:]), binary.LittleEndian.Uint32(data[o+4:])
			v4, v6, class := data[o+8], data[o+9], data[o+10]
			switch vis := binary.LittleEndian.Uint64(data[o+16:]); {
			case lk > hk:
				return fmt.Errorf("snapshot: %s: link %d-%d not in canonical order (byte offset %d)", secName[si], lk, hk, o)
			case v4 > byte(asrel.S2S) || v6 > byte(asrel.S2S):
				return fmt.Errorf("snapshot: %s: invalid relationship code (byte offset %d)", secName[si], o+8)
			case class > byte(asrel.HybridOther):
				return fmt.Errorf("snapshot: %s: invalid hybrid class %d (byte offset %d)", secName[si], class, o+10)
			case vis > math.MaxInt64/2:
				return fmt.Errorf("snapshot: %s: implausible value %d (byte offset %d)", secName[si], vis, o+16)
			case binary.LittleEndian.Uint64(data[o+8:])>>24 != 0:
				return fmt.Errorf("snapshot: %s: nonzero record padding (byte offset %d)", secName[si], o+11)
			}
		}
	case secASNs:
		for i := max(lo, 1); i < hi; i++ {
			if x.ASNs[i] <= x.ASNs[i-1] {
				return fmt.Errorf("snapshot: %s: %s out of order (byte offset %d)", secName[si], x.ASNs[i], at(i))
			}
		}
	case secRows:
		return checkOffsets(lay, si, x.Rows, lo, hi, len(x.Neighbors))
	case secClassRows:
		return checkOffsets(lay, si, x.ClassRows, lo, hi, len(x.HybByClass))
	case secHybRows:
		return checkOffsets(lay, si, x.HybRows, lo, hi, len(x.HybByEnd))
	case secNeighbors:
		// Strictly ascending within each row: walk the rows overlapping
		// lo..hi, comparing each entry with its predecessor in the row.
		r := v.run
		for k := lo; k < hi; {
			for int(x.Rows[r+1]) <= k {
				r++
			}
			first, end := int(x.Rows[r]), min(hi, int(x.Rows[r+1]))
			row := x.Neighbors[first:end]
			for j := max(k-first, 1); j < len(row); j++ {
				if row[j] <= row[j-1] {
					return fmt.Errorf("snapshot: %s: row of %s out of order at %s (byte offset %d)", secName[si], x.ASNs[r], row[j], at(first+j))
				}
			}
			k = end
		}
		v.run = r
	case secPlanes:
		if i := firstOutside(data[at(lo):at(hi)], 1, PlaneV4|PlaneV6); i >= 0 {
			return fmt.Errorf("snapshot: %s: invalid plane bits %#x (byte offset %d)", secName[si], data[at(lo)+i], at(lo)+i)
		}
	case secHybByKey:
		// (key, index) strictly ascending, which with in-range entries
		// makes the section a permutation of the hybrid list.
		hs := s.Hybrids
		for i := lo; i < hi; i++ {
			p := x.HybByKey[i]
			if int(p) >= len(hs) {
				return fmt.Errorf("snapshot: %s: hybrid %d out of range (byte offset %d)", secName[si], p, at(i))
			}
			if i > 0 {
				q := x.HybByKey[i-1]
				if a, b := intern.Pack(hs[q].Key), intern.Pack(hs[p].Key); b < a || b == a && p <= q {
					return fmt.Errorf("snapshot: %s: hybrid %d out of key order (byte offset %d)", secName[si], p, at(i))
				}
			}
		}
	case secHybByClass:
		return v.hybridRuns(si, lo, hi, x.ClassRows, x.HybByClass, func(run int, h core.HybridLink) bool {
			return h.Class == asrel.HybridClass(run)
		})
	case secHybByEnd:
		return v.hybridRuns(si, lo, hi, x.HybRows, x.HybByEnd, func(run int, h core.HybridLink) bool {
			return h.Key.Lo == x.ASNs[run] || h.Key.Hi == x.ASNs[run]
		})
	}
	return nil
}

// hybridRuns checks entries lo..hi of a grouped hybrid section whose
// runs rows delimits: every reference in range, strictly ascending
// within its run, and to a hybrid that belongs to the run.
func (v *validator) hybridRuns(si, lo, hi int, rows, list []uint32, belongs func(run int, h core.HybridLink) bool) error {
	hs := v.s.Hybrids
	for k := lo; k < hi; k++ {
		for int(rows[v.run+1]) <= k {
			v.run++
		}
		p, o := list[k], v.lay.off[si]+4*k
		switch {
		case int(p) >= len(hs):
			return fmt.Errorf("snapshot: %s: hybrid %d out of range (byte offset %d)", secName[si], p, o)
		case k > int(rows[v.run]) && p <= list[k-1]:
			return fmt.Errorf("snapshot: %s: hybrid %d out of list order (byte offset %d)", secName[si], p, o)
		case !belongs(v.run, hs[p]):
			return fmt.Errorf("snapshot: %s: hybrid %d filed under the wrong run (byte offset %d)", secName[si], p, o)
		}
	}
	return nil
}

// firstOutside returns the position of the first byte of b outside
// [lo, hi], or -1.
func firstOutside(b []byte, lo, hi byte) int {
	for i, c := range b {
		if c < lo || c > hi {
			return i
		}
	}
	return -1
}

// checkOffsets checks entries lo..hi of an offset table: the first
// entry 0, entries non-decreasing, the last equal to total.
func checkOffsets(lay *layout, si int, offs []uint32, lo, hi, total int) error {
	for i := lo; i < hi; i++ {
		if (i == 0 && offs[i] != 0) || (i > 0 && offs[i] < offs[i-1]) || (i == len(offs)-1 && int(offs[i]) != total) {
			return fmt.Errorf("snapshot: %s: offset %d invalid (byte offset %d)", secName[si], offs[i], lay.off[si]+4*i)
		}
	}
	return nil
}

// readFixed is the strict fixed-width decoder: the shared validation
// pass, then every product copied onto the heap. For version 3 it also
// rebuilds the index from the decoded tables and requires the file to
// be byte-for-byte their canonical encoding, so an index that
// disagrees with its tables is rejected even when every checksum and
// form check holds. Read dispatches here for versions 2 and 3.
func readFixed(data []byte) (*Snapshot, error) {
	lay, err := parse(data)
	if err != nil {
		return nil, err
	}
	if err := validate(data, lay, view(data, lay)); err != nil {
		return nil, err
	}
	s := decodeFixed(data, lay, false)
	if err := readStats(data, lay, s); err != nil {
		return nil, err
	}
	if lay.version == Version3 {
		x := BuildIndex(s)
		if !bytes.Equal(encodeV3(s, x), data) {
			return nil, fmt.Errorf("snapshot: v3: not the canonical encoding of its tables (index or stats disagree)")
		}
		s.index = x
	}
	return s, nil
}

// decodeFixed copies the table sections of an artifact onto the heap,
// and with withIndex the version-3 index sections too.
func decodeFixed(data []byte, lay *layout, withIndex bool) *Snapshot {
	le := binary.LittleEndian
	table := func(ki int) *intern.Table {
		n := lay.cnt[ki]
		keys, rels := make([]uint64, n), make([]asrel.Rel, n)
		for i := range keys {
			keys[i] = le.Uint64(data[lay.off[ki]+8*i:])
			rels[i] = asrel.Rel(data[lay.off[ki+1]+i])
		}
		return intern.TableFromSorted(keys, rels)
	}
	links := func(si int) []Link {
		if lay.cnt[si] == 0 {
			return nil
		}
		out := make([]Link, lay.cnt[si])
		for i := range out {
			o := lay.off[si] + 16*i
			out[i] = Link{
				Key:        asrel.LinkKey{Lo: asrel.ASN(le.Uint32(data[o:])), Hi: asrel.ASN(le.Uint32(data[o+4:]))},
				Visibility: int(le.Uint64(data[o+8:])),
			}
		}
		return out
	}
	s := &Snapshot{Rel4: table(secRel4Keys), Rel6: table(secRel6Keys), Links4: links(secLinks4), Links6: links(secLinks6)}
	if n := lay.cnt[secHybrids]; n > 0 {
		s.Hybrids = make([]core.HybridLink, n)
		for i := range s.Hybrids {
			o := lay.off[secHybrids] + 24*i
			s.Hybrids[i] = core.HybridLink{
				Key:        asrel.LinkKey{Lo: asrel.ASN(le.Uint32(data[o:])), Hi: asrel.ASN(le.Uint32(data[o+4:]))},
				V4:         asrel.Rel(data[o+8]),
				V6:         asrel.Rel(data[o+9]),
				Class:      asrel.HybridClass(data[o+10]),
				Visibility: int(le.Uint64(data[o+16:])),
			}
		}
	}
	if withIndex && lay.version == Version3 {
		x := &Index{
			ASNs:       decodeU32s[asrel.ASN](data, lay, secASNs),
			Rows:       decodeU32s[uint32](data, lay, secRows),
			Neighbors:  decodeU32s[asrel.ASN](data, lay, secNeighbors),
			Planes:     bytes.Clone(lay.sec(data, secPlanes)),
			HybByKey:   decodeU32s[uint32](data, lay, secHybByKey),
			ClassRows:  decodeU32s[uint32](data, lay, secClassRows),
			HybByClass: decodeU32s[uint32](data, lay, secHybByClass),
			HybRows:    decodeU32s[uint32](data, lay, secHybRows),
			HybByEnd:   decodeU32s[uint32](data, lay, secHybByEnd),
		}
		s.index = x
	}
	return s
}

func decodeU32s[T ~uint32](data []byte, lay *layout, si int) []T {
	out := make([]T, lay.cnt[si])
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(data[lay.off[si]+4*i:]))
	}
	return out
}

// readStats decodes the stats section into s. It is shared by the
// strict decoder and Map (the section is 19+2k words).
func readStats(data []byte, lay *layout, s *Snapshot) error {
	const section = "stats section"
	n := lay.cnt[secStats]
	if n < 19 {
		return fmt.Errorf("snapshot: %s: %d words, need at least 19", section, n)
	}
	raw := func(i int) uint64 { return binary.LittleEndian.Uint64(data[lay.off[secStats]+8*i:]) }
	word := func(i int) (int, error) {
		if w := raw(i); w > math.MaxInt64/2 {
			return 0, fmt.Errorf("snapshot: %s: implausible value %d (word %d)", section, w, i)
		}
		return int(raw(i)), nil
	}
	var err error
	s.Coverage = core.Coverage{}
	for i, p := range []*int{&s.Coverage.Paths6, &s.Coverage.Links6, &s.Coverage.Links4,
		&s.Coverage.DualStack, &s.Coverage.Classified6, &s.Coverage.ClassifiedDual,
		&s.Coverage.ClassifiedDualBoth} {
		if *p, err = word(i); err != nil {
			return err
		}
	}
	s.Census = core.HybridCensus{ByClass: make(map[asrel.HybridClass]int)}
	if s.Census.DualClassified, err = word(7); err != nil {
		return err
	}
	if s.Census.Hybrid, err = word(8); err != nil {
		return err
	}
	k := raw(9)
	if k > uint64(asrel.HybridOther)+1 || n != int(19+2*k) {
		return fmt.Errorf("snapshot: %s: %d words with %d census classes", section, n, k)
	}
	for i := 0; i < int(k); i++ {
		cl := raw(10 + 2*i)
		if cl > uint64(asrel.HybridOther) {
			return fmt.Errorf("snapshot: %s: invalid hybrid class %d (word %d)", section, cl, 10+2*i)
		}
		if s.Census.ByClass[asrel.HybridClass(cl)], err = word(11 + 2*i); err != nil {
			return err
		}
	}
	base := 10 + 2*int(k)
	if s.Visibility.Paths, err = word(base); err != nil {
		return err
	}
	if s.Visibility.PathsWithHybrid, err = word(base + 1); err != nil {
		return err
	}
	s.Visibility.MeanHybridEndpointDegree = math.Float64frombits(raw(base + 2))
	s.Visibility.MeanDualEndpointDegree = math.Float64frombits(raw(base + 3))
	for i, p := range []*int{&s.Valley.Total, &s.Valley.ValleyFree, &s.Valley.Valley,
		&s.Valley.Unclassified, &s.Valley.Necessary} {
		if *p, err = word(base + 4 + i); err != nil {
			return err
		}
	}
	return nil
}
