package dataset

// Differential and aliasing tests for the path table: the key-sorted
// canonical order against a plain lexicographic sort, and the contract
// that PathObs values alias arenas which are only ever appended to or
// replaced whole.

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
)

// lexLess is the reference order: element-wise by AS number, a proper
// prefix first.
func lexLess(a, b []asrel.ASN) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// orderPaths returns loop-free paths that stress the packed sort keys:
// hand-picked prefix pairs, long shared heads, AS 0 (the pad value) and
// AS numbers at and above 2³¹, then random paths of length 1–12 drawn
// from a small pool so heads collide often. Some paths repeat.
func orderPaths(rng *rand.Rand) [][]asrel.ASN {
	const hi = 1 << 31
	paths := [][]asrel.ASN{
		{7, 8}, {7, 8, 9}, // a path that is a prefix of another
		{7}, {7, 0}, {7, 0, 5}, {7, 0, 1}, // AS 0 where the pad would be
		{0}, {0, 1}, {1, 0},
		{1, 2, 3, 4}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}, {1, 2, 3, 4, 5, 6, 7, 8, 9},
		{1, 2, 3, 4, 5, 6, 7, 8, 0}, {1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 0},
		{hi, 1}, {hi - 1, 1}, {hi + 1}, {^asrel.ASN(0)}, {^asrel.ASN(0), 0}, {3, hi, 4}, {3, hi - 1, 4},
	}
	head := []asrel.ASN{1, 2, 3, 4}
	pool := []asrel.ASN{0, 5, 6, 7, 8, 9, 10, 11, 12, 64512, 65535, 65536, hi - 1, hi, hi + 1, ^asrel.ASN(0)}
	for range 2000 {
		n := 1 + rng.IntN(12)
		var p []asrel.ASN
		// Most long paths share their vantage and next three hops.
		if n > len(head) && rng.IntN(3) > 0 {
			p = append(p, head...)
		}
		for _, i := range rng.Perm(len(pool))[:n-len(p)] {
			p = append(p, pool[i])
		}
		paths = append(paths, p)
		if rng.IntN(10) == 0 {
			paths = append(paths, p) // duplicate observation
		}
	}
	return paths
}

func pathsOf(ps []*PathObs) [][]asrel.ASN {
	out := make([][]asrel.ASN, len(ps))
	for i, p := range ps {
		out[i] = p.Path
	}
	return out
}

// TestCanonicalOrderMatchesLexicographic checks the key-sorted Paths()
// order against a plain lexicographic sort of the unique paths, for a
// sequential dataset before and after Freeze, for shards folded with
// Merge, and for a live dataset.
func TestCanonicalOrderMatchesLexicographic(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		paths := orderPaths(rand.New(rand.NewPCG(seed, 0)))
		rand.New(rand.NewPCG(seed, 1)).Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })

		var want [][]asrel.ASN
		seen := map[string]bool{}
		for _, p := range paths {
			if k := fmt.Sprint(p); !seen[k] {
				seen[k] = true
				want = append(want, p)
			}
		}
		sort.Slice(want, func(i, j int) bool { return lexLess(want[i], want[j]) })

		check := func(name string, d *Dataset) {
			t.Helper()
			if got := pathsOf(d.Paths()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: Paths() is not in lexicographic order (%d paths, want %d)", seed, name, len(got), len(want))
			}
		}

		seq := New(asrel.IPv4)
		for _, p := range paths {
			if err := seq.AddPath(p, netip.Prefix{}, nil, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if seq.sorted {
			t.Fatalf("seed %d: shuffled input left the table flagged sorted", seed)
		}
		check("sequential", seq)
		seq.Freeze()
		check("sequential frozen", seq)

		merged := New(asrel.IPv4)
		for s := range 3 {
			shard := New(asrel.IPv4)
			for i := s; i < len(paths); i += 3 {
				if err := shard.AddPath(paths[i], netip.Prefix{}, nil, 0, false); err != nil {
					t.Fatal(err)
				}
			}
			shard.Freeze()
			if err := merged.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		check("shards + Merge", merged)

		live := NewLive(asrel.IPv4)
		for _, p := range paths {
			if _, _, err := live.Retain(p, netip.Prefix{}, nil, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		check("live", live)
	}
}

type obsCopy struct {
	path  []asrel.ASN
	comms []bgp.Community
	obs   int
}

func copyObs(ps []*PathObs) []obsCopy {
	out := make([]obsCopy, len(ps))
	for i, p := range ps {
		out[i] = obsCopy{slices.Clone(p.Path), slices.Clone(p.Communities), p.Obs}
	}
	return out
}

// TestPathsAliasingContract pins what aliasing the arenas promises: a
// caller appending to a returned Path gets a copy, and a Paths() result
// reads the same path and communities after any later mutation.
func TestPathsAliasingContract(t *testing.T) {
	comm := func(v uint16) []bgp.Community { return []bgp.Community{bgp.MakeCommunity(2, v)} }
	d := New(asrel.IPv4)
	for _, p := range [][]asrel.ASN{{5, 2, 3}, {1, 2, 3}, {1, 2, 4}} {
		if err := d.AddPath(p, netip.Prefix{}, comm(uint16(p[0])), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Paths()
	want := copyObs(before)
	steady := func(step string) {
		t.Helper()
		for i, p := range before {
			if !slices.Equal(p.Path, want[i].path) || !slices.Equal(p.Communities, want[i].comms) {
				t.Fatalf("after %s: Paths()[%d] reads %v %v, want %v %v", step, i, p.Path, p.Communities, want[i].path, want[i].comms)
			}
		}
	}

	for _, p := range before {
		if cap(p.Path) != len(p.Path) || cap(p.Communities) != len(p.Communities) {
			t.Fatalf("path %v: aliased slices must be capacity-limited", p.Path)
		}
		grown := append(p.Path, 99)
		grown[0] = 42
	}
	steady("appending to returned paths")
	if got := copyObs(d.Paths()); !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to a returned path changed the dataset: %v", got)
	}

	if err := d.AddPath([]asrel.ASN{0, 9}, netip.Prefix{}, comm(7), 0, false); err != nil {
		t.Fatal(err)
	}
	steady("AddPath")
	d.Freeze()
	steady("Freeze")
	other := New(asrel.IPv4)
	for _, p := range [][]asrel.ASN{{1, 2, 3}, {0, 1}, {6, 7}} {
		if err := other.AddPath(p, netip.Prefix{}, comm(9), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Merge(other); err != nil {
		t.Fatal(err)
	}
	steady("Merge")

	l := NewLive(asrel.IPv4)
	idx, _, err := l.Retain([]asrel.ASN{3, 2, 1}, netip.Prefix{}, comm(3), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Retain([]asrel.ASN{1, 2}, netip.Prefix{}, comm(1), 0, false); err != nil {
		t.Fatal(err)
	}
	before = l.Paths()
	want = copyObs(before)
	if _, _, err := l.Retain([]asrel.ASN{0, 2}, netip.Prefix{}, comm(0), 0, false); err != nil {
		t.Fatal(err)
	}
	steady("live Retain")
	l.Release(idx)
	steady("live Release")
	if _, _, err := l.Retain([]asrel.ASN{3, 2, 1}, netip.Prefix{}, comm(3), 0, false); err != nil {
		t.Fatal(err)
	}
	steady("live re-Retain")
}
