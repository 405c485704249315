// Package intern provides the compact, array-backed topology core the
// hot paths run on: dense uint32 AS identifiers, flat sorted link
// tables with binary-search lookup and two-pointer merge/join, and a
// compressed-sparse-row (CSR) adjacency for graph traversals.
//
// The map-keyed structures the repository started with (Go maps keyed
// by asrel.LinkKey or asrel.ASN) are convenient builders but dominate
// allocation and cache misses at route-collector scale: a full
// IPv4+IPv6 join of the RouteViews/RIS planes touches hundreds of
// thousands of links, and every map probe is a hash plus a pointer
// chase. The interned representation stores a link table as one sorted
// slice of packed uint64 keys with a parallel value slice, so a lookup
// is a branch-predictable binary search, a whole-table merge or
// dual-stack join is a linear two-pointer sweep, and iteration is a
// cache-friendly scan in canonical order.
//
// Everything in this package is deterministic: the same inputs produce
// the same slices byte for byte, which is what lets the snapshot codec
// and the scenario matrix's differential invariants operate directly on
// the interned form.
package intern

import (
	"hybridrel/internal/asrel"
)

// Pack encodes a canonical link key into one uint64 that sorts in the
// same (Lo, Hi) order the repository uses everywhere.
func Pack(k asrel.LinkKey) uint64 {
	return uint64(k.Lo)<<32 | uint64(k.Hi)
}

// Unpack inverts Pack.
func Unpack(u uint64) asrel.LinkKey {
	return asrel.LinkKey{Lo: asrel.ASN(u >> 32), Hi: asrel.ASN(u & 0xffffffff)}
}

// Interner assigns dense uint32 identifiers to AS numbers in first-seen
// order. IDs index plain slices where a map keyed by ASN would
// otherwise be needed. The index is its own open-addressed table — an
// AS-number probe is one multiply-shift hash and a linear scan over a
// flat int32 array, measurably cheaper than a Go map probe on the
// ingest hot path. The zero value is not usable; construct with
// NewInterner.
type Interner struct {
	asns []asrel.ASN // id → ASN
	tab  []int32     // open-addressed: id+1, 0 = empty
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{tab: make([]int32, 64)}
}

// hashASN scrambles an AS number into a table slot seed.
func hashASN(a asrel.ASN) uint64 {
	u := uint64(a) * 0x9E3779B97F4A7C15
	return u ^ (u >> 29)
}

// Intern returns the dense ID of a, assigning the next free one on
// first sight.
func (in *Interner) Intern(a asrel.ASN) uint32 {
	mask := uint64(len(in.tab) - 1)
	i := hashASN(a) & mask
	for {
		e := in.tab[i]
		if e == 0 {
			break
		}
		if in.asns[e-1] == a {
			return uint32(e - 1)
		}
		i = (i + 1) & mask
	}
	id := uint32(len(in.asns))
	in.asns = append(in.asns, a)
	in.tab[i] = int32(id) + 1
	if (len(in.asns)+1)*4 > len(in.tab)*3 {
		in.grow()
	}
	return id
}

// grow doubles the probe table and reinserts every assigned id.
func (in *Interner) grow() {
	tab := make([]int32, len(in.tab)*2)
	mask := uint64(len(tab) - 1)
	for id, a := range in.asns {
		i := hashASN(a) & mask
		for tab[i] != 0 {
			i = (i + 1) & mask
		}
		tab[i] = int32(id) + 1
	}
	in.tab = tab
}

// Lookup returns the ID of a without assigning one.
func (in *Interner) Lookup(a asrel.ASN) (uint32, bool) {
	mask := uint64(len(in.tab) - 1)
	i := hashASN(a) & mask
	for {
		e := in.tab[i]
		if e == 0 {
			return 0, false
		}
		if in.asns[e-1] == a {
			return uint32(e - 1), true
		}
		i = (i + 1) & mask
	}
}

// searchPacked returns the index of key in keys, or (insertion point,
// false) when absent. keys must be sorted ascending.
func searchPacked(keys []uint64, key uint64) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == key
}
