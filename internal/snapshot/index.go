package snapshot

import (
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
)

// Plane bits of Index.Planes.
const (
	PlaneV4 uint8 = 1 << 0
	PlaneV6 uint8 = 1 << 1
)

// numClasses is the number of hybrid classes, NotHybrid included.
const numClasses = int(asrel.HybridOther) + 1

// Index is the serve index of a snapshot: the per-AS adjacency in CSR
// form and the hybrid list's by-key, by-class and by-endpoint orders.
// Format v3 carries it as fixed-width sections, so a mapped snapshot
// aliases it in place; every other snapshot gets it from BuildIndex.
// All hybrid references are indexes into Snapshot.Hybrids. An Index is
// immutable and shares the lifetime of the snapshot it indexes.
type Index struct {
	// ASNs lists every AS with at least one observed link, ascending.
	ASNs []asrel.ASN
	// Rows has len(ASNs)+1 offsets: Neighbors[Rows[i]:Rows[i+1]] is the
	// adjacency of ASNs[i], ascending by neighbor ASN, and Planes holds
	// the plane bits (PlaneV4, PlaneV6) of each of those links.
	Rows      []uint32
	Neighbors []asrel.ASN
	Planes    []uint8
	// HybByKey orders the hybrid list by canonical link key.
	HybByKey []uint32
	// ClassRows has one offset per hybrid class plus one:
	// HybByClass[ClassRows[c]:ClassRows[c+1]] are the hybrids of class
	// c, in list (visibility) order.
	ClassRows  []uint32
	HybByClass []uint32
	// HybRows has len(ASNs)+1 offsets: HybByEnd[HybRows[i]:HybRows[i+1]]
	// are the hybrids with an endpoint ASNs[i], in list order.
	HybRows  []uint32
	HybByEnd []uint32
}

// Index returns the serve index of s: the one carried by the file for
// snapshots mapped or read from format v3, otherwise one freshly built
// from the link sections and hybrid list.
func (s *Snapshot) Index() *Index {
	if s.index != nil {
		return s.index
	}
	return BuildIndex(s)
}

// BuildIndex derives the serve index from s's link sections and
// hybrid list. It is the one builder behind both the v3 writer and the
// load of every snapshot that does not carry an index (v1, v2, and
// heap snapshots from Capture or live ingest).
//
// No comparison sort is involved. The two link sections are merged
// into one canonical (Lo,Hi) sequence, which already lists every AS's
// higher neighbors as one ascending run. Its lower neighbors are the
// links with Hi equal to it; a stable radix sort on Hi (two 11-bit
// passes for ASNs below 2^22) groups those, ascending by Lo because the
// input was. A row is the lower run followed by the upper run.
func BuildIndex(s *Snapshot) *Index {
	keys, planes := unionLinks(s.Links4, s.Links6)
	byHi := make([]uint64, len(keys))
	for i, k := range keys {
		byHi[i] = k<<32 | uint64(i) // Hi in the top half, position below
	}
	byHi = radixSort(byHi, 32)

	x := &Index{Neighbors: make([]asrel.ASN, 0, 2*len(keys)), Planes: make([]uint8, 0, 2*len(keys))}
	for a, b := 0, 0; a < len(keys) || b < len(byHi); {
		var as asrel.ASN
		switch {
		case b == len(byHi):
			as = asrel.ASN(keys[a] >> 32)
		case a == len(keys):
			as = asrel.ASN(byHi[b] >> 32)
		default:
			as = min(asrel.ASN(keys[a]>>32), asrel.ASN(byHi[b]>>32))
		}
		x.ASNs = append(x.ASNs, as)
		x.Rows = append(x.Rows, uint32(len(x.Neighbors)))
		for ; b < len(byHi) && asrel.ASN(byHi[b]>>32) == as; b++ {
			i := uint32(byHi[b])
			// A self-link appears once, in the upper run.
			if lo := asrel.ASN(keys[i] >> 32); lo != as {
				x.Neighbors, x.Planes = append(x.Neighbors, lo), append(x.Planes, planes[i])
			}
		}
		for ; a < len(keys) && asrel.ASN(keys[a]>>32) == as; a++ {
			x.Neighbors, x.Planes = append(x.Neighbors, asrel.ASN(keys[a])), append(x.Planes, planes[a])
		}
	}
	x.Rows = append(x.Rows, uint32(len(x.Neighbors)))
	x.indexHybrids(s.Hybrids)
	return x
}

// indexHybrids fills the three hybrid orders. By class and by endpoint
// are counting sorts that keep list order within each run; by key
// radix-sorts the packed keys and places each hybrid at its key's
// position, duplicates in list order.
func (x *Index) indexHybrids(hs []core.HybridLink) {
	n := len(hs)
	keys := make([]uint64, n)
	for i, h := range hs {
		keys[i] = intern.Pack(h.Key)
	}
	sorted := radixSort(keys, 0)
	x.HybByKey = make([]uint32, n)
	taken := make([]bool, n)
	for i, h := range hs {
		p, _ := slices.BinarySearch(sorted, intern.Pack(h.Key))
		for taken[p] {
			p++
		}
		taken[p] = true
		x.HybByKey[p] = uint32(i)
	}

	x.ClassRows = make([]uint32, numClasses+1)
	for _, h := range hs {
		x.ClassRows[h.Class+1]++
	}
	for c := 1; c <= numClasses; c++ {
		x.ClassRows[c] += x.ClassRows[c-1]
	}
	x.HybByClass = make([]uint32, n)
	next := make([]uint32, numClasses)
	copy(next, x.ClassRows)
	for i, h := range hs {
		x.HybByClass[next[h.Class]] = uint32(i)
		next[h.Class]++
	}

	// Endpoint rows: a hybrid is listed under each endpoint the
	// adjacency knows (once for a self-link).
	x.HybRows = make([]uint32, len(x.ASNs)+1)
	ends := func(h core.HybridLink, fn func(row int)) {
		lo, okLo := x.Row(h.Key.Lo)
		if okLo {
			fn(lo)
		}
		if hi, ok := x.Row(h.Key.Hi); ok && (!okLo || hi != lo) {
			fn(hi)
		}
	}
	for _, h := range hs {
		ends(h, func(r int) { x.HybRows[r+1]++ })
	}
	for r := 1; r < len(x.HybRows); r++ {
		x.HybRows[r] += x.HybRows[r-1]
	}
	x.HybByEnd = make([]uint32, x.HybRows[len(x.HybRows)-1])
	fill := make([]uint32, len(x.ASNs))
	copy(fill, x.HybRows)
	for i, h := range hs {
		ends(h, func(r int) {
			x.HybByEnd[fill[r]] = uint32(i)
			fill[r]++
		})
	}
}

// Row returns the position of asn in ASNs.
//
//hybridrel:hotpath
func (x *Index) Row(asn asrel.ASN) (int, bool) {
	return slices.BinarySearch(x.ASNs, asn)
}

// LinkPlanes returns the plane bits of the link between a and b: a
// search of a's adjacency row, 0 when neither plane observed the link.
//
//hybridrel:hotpath
func (x *Index) LinkPlanes(a, b asrel.ASN) uint8 {
	r, ok := x.Row(a)
	if !ok {
		return 0
	}
	nbrs, planes := x.NeighborsOf(r)
	if i, found := slices.BinarySearch(nbrs, b); found {
		return planes[i]
	}
	return 0
}

// NeighborsOf returns the adjacency row at position r of ASNs and the
// plane bits of each of its links.
//
//hybridrel:hotpath
func (x *Index) NeighborsOf(r int) ([]asrel.ASN, []uint8) {
	lo, hi := x.Rows[r], x.Rows[r+1]
	return x.Neighbors[lo:hi], x.Planes[lo:hi]
}

// HybridsOf returns the hybrid indexes with an endpoint at position r
// of ASNs, in list order.
//
//hybridrel:hotpath
func (x *Index) HybridsOf(r int) []uint32 {
	return x.HybByEnd[x.HybRows[r]:x.HybRows[r+1]]
}

// HybridsOfClass returns the hybrid indexes of class c in list order.
//
//hybridrel:hotpath
func (x *Index) HybridsOfClass(c asrel.HybridClass) []uint32 {
	return x.HybByClass[x.ClassRows[c]:x.ClassRows[c+1]]
}

// unionLinks merges two canonical link sections into one ascending
// sequence of packed keys, with the planes each link was seen in.
func unionLinks(l4, l6 []Link) ([]uint64, []uint8) {
	keys := make([]uint64, 0, len(l4)+len(l6))
	planes := make([]uint8, 0, len(l4)+len(l6))
	i, j := 0, 0
	for i < len(l4) || j < len(l6) {
		var k4, k6 uint64
		if i < len(l4) {
			k4 = intern.Pack(l4[i].Key)
		}
		if j < len(l6) {
			k6 = intern.Pack(l6[j].Key)
		}
		switch {
		case j == len(l6) || (i < len(l4) && k4 < k6):
			keys, planes = append(keys, k4), append(planes, PlaneV4)
			i++
		case i == len(l4) || k6 < k4:
			keys, planes = append(keys, k6), append(planes, PlaneV6)
			j++
		default:
			keys, planes = append(keys, k4), append(planes, PlaneV4|PlaneV6)
			i++
			j++
		}
	}
	return keys, planes
}

// radixBits is the digit width of radixSort: 2048 buckets keep each
// pass's counters and write cursors cache-resident, and 32-bit values
// of up to 22 significant bits (every ASN of the scale worlds) sort in
// two passes.
const radixBits = 11

// radixSort sorts a ascending with stable least-significant-digit
// passes over bits fromBit..63 of each value, skipping any digit on
// which every value agrees. a must already be ordered by its low
// fromBit bits (fromBit = 0 sorts fully). The result is a or a
// same-sized scratch slice.
func radixSort(a []uint64, fromBit int) []uint64 {
	if len(a) < 2 {
		return a
	}
	const mask = 1<<radixBits - 1
	digits := (64 - fromBit + radixBits - 1) / radixBits
	var counts [(64 + radixBits - 1) / radixBits][1 << radixBits]uint32
	for _, v := range a {
		v >>= fromBit
		for d := 0; d < digits; d++ {
			counts[d][v&mask]++
			v >>= radixBits
		}
	}
	var tmp []uint64
	src := a
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := fromBit + radixBits*d
		if int(c[src[0]>>shift&mask]) == len(src) {
			continue
		}
		if tmp == nil {
			tmp = make([]uint64, len(a))
		}
		var sum uint32
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, v := range src {
			b := v >> shift & mask
			tmp[c[b]] = v
			c[b]++
		}
		src, tmp = tmp, src
	}
	return src
}
