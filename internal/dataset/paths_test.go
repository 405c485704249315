package dataset

// Pins for Paths() building a fresh result on every call: the dataset
// keeps no reference to it, building it costs a fixed number of
// allocations whatever the path count, and two results share no
// writable state.

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"weak"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// pinDatasets returns a batch dataset of n unique paths, added out of
// canonical order, and a live dataset of the same paths with every
// fifth one withdrawn. Every path carries a prefix, every third a
// second one, every other a community.
func pinDatasets(t *testing.T, n int) map[string]*Dataset {
	t.Helper()
	batch, live := New(asrel.IPv4), NewLive(asrel.IPv4)
	for i := range n {
		path := []asrel.ASN{asrel.ASN(100000 - i), 2, asrel.ASN(3 + i%7), asrel.ASN(50000 + i)}
		var comms []bgp.Community
		if i%2 == 0 {
			comms = []bgp.Community{bgp.MakeCommunity(2, uint16(i))}
		}
		nPrefixes := 1
		if i%3 == 0 {
			nPrefixes = 2
		}
		for j := range nPrefixes {
			pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), byte(j)}), 32)
			if err := batch.AddPath(path, pfx, comms, 0, false); err != nil {
				t.Fatal(err)
			}
			idx, _, err := live.Retain(path, pfx, comms, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 && j == 0 {
				live.Release(idx)
			}
		}
	}
	return map[string]*Dataset{"batch": batch, "live": live}
}

// gone reports whether the weak pointer's target was collected within
// a few forced collections.
func gone[T any](p weak.Pointer[T]) bool {
	for range 4 {
		runtime.GC()
		if p.Value() == nil {
			return true
		}
	}
	return false
}

// TestPathsRetainsNothing: once the caller drops a Paths() result,
// both its PathObs values and their prefixes are garbage — the dataset
// holds no reference to either.
func TestPathsRetainsNothing(t *testing.T) {
	for name, d := range pinDatasets(t, 300) {
		obs, pfx := func() (weak.Pointer[PathObs], weak.Pointer[netip.Prefix]) {
			ps := d.Paths()
			p := ps[len(ps)/2]
			return weak.Make(p), weak.Make(&p.Prefixes[0])
		}()
		if !gone(obs) {
			t.Errorf("%s: a PathObs outlives its dropped Paths() result", name)
		}
		if !gone(pfx) {
			t.Errorf("%s: a PathObs prefix outlives its dropped Paths() result", name)
		}
		// The dataset still answers in full.
		if got := len(d.Paths()); got != d.NumUniquePaths() {
			t.Errorf("%s: Paths() after collection = %d paths, want %d", name, got, d.NumUniquePaths())
		}
	}
}

// TestPathsAllocsConstant: Paths() costs the same small number of
// allocations at ~100 and ~2 000 paths — slabs, not one object per
// path.
func TestPathsAllocsConstant(t *testing.T) {
	const maxAllocs = 6
	small, large := pinDatasets(t, 100), pinDatasets(t, 2000)
	for name := range small {
		a := testing.AllocsPerRun(20, func() { _ = small[name].Paths() })
		b := testing.AllocsPerRun(20, func() { _ = large[name].Paths() })
		if a != b || a > maxAllocs {
			t.Errorf("%s: Paths() allocates %.0f objects at %d paths, %.0f at %d; want the same, at most %d",
				name, a, small[name].NumUniquePaths(), b, large[name].NumUniquePaths(), maxAllocs)
		}
	}
}

// TestPathsResultsIndependent: values written through one Paths()
// result show neither in another result nor in the dataset, and
// appending to one path's prefixes leaves its neighbor's alone.
func TestPathsResultsIndependent(t *testing.T) {
	other := netip.MustParsePrefix("192.0.2.0/24")
	for name, d := range pinDatasets(t, 50) {
		r1, r2 := d.Paths(), d.Paths()
		want := fmt.Sprint(snapshotPaths(r2))
		for i, p := range r1 {
			if p == r2[i] {
				t.Fatalf("%s: two Paths() results share PathObs %d", name, i)
			}
			p.Obs = -1
			p.Prefixes[0] = other
			_ = append(p.Prefixes, other)
		}
		if got := fmt.Sprint(snapshotPaths(r2)); got != want {
			t.Errorf("%s: writes through one result show in another", name)
		}
		if got := fmt.Sprint(snapshotPaths(d.Paths())); got != want {
			t.Errorf("%s: writes through a result show in the dataset", name)
		}
		r3 := d.Paths()
		for i := 0; i+1 < len(r3); i++ {
			_ = append(r3[i].Prefixes, other)
		}
		if got := fmt.Sprint(snapshotPaths(r3)); got != want {
			t.Errorf("%s: appending to one path's prefixes changed another's", name)
		}
	}
}

type pathSnap struct {
	path     []asrel.ASN
	prefixes []netip.Prefix
	obs      int
}

func snapshotPaths(ps []*PathObs) []pathSnap {
	out := make([]pathSnap, len(ps))
	for i, p := range ps {
		out[i] = pathSnap{p.Path, append([]netip.Prefix(nil), p.Prefixes...), p.Obs}
	}
	return out
}
