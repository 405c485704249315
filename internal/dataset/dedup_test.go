package dataset

// Tests for the dedup table: entries carry the path hash beside the
// record index, so distinct paths with equal hashes must still resolve
// on the arena compare, a table rebuilt after the records moved must
// rehash from the arena, and growth must carry every entry over.

import (
	"fmt"
	"net/netip"
	"testing"

	"hybridrel/internal/asrel"
)

// collidingPaths finds two distinct loop-free paths {1, x} with equal
// hashASNs by a deterministic search (a 32-bit hash collides within a
// few hundred thousand candidates).
func collidingPaths(t *testing.T) (p, q []asrel.ASN) {
	t.Helper()
	seen := make(map[uint32]asrel.ASN)
	for x := asrel.ASN(2); x < 1<<22; x++ {
		h := hashASNs([]asrel.ASN{1, x})
		if y, ok := seen[h]; ok {
			return []asrel.ASN{1, y}, []asrel.ASN{1, x}
		}
		seen[h] = x
	}
	t.Fatal("no hash collision among the candidates")
	return nil, nil
}

// obsByPath maps each path of d, printed, to its observation count.
func obsByPath(d *Dataset) map[string]int {
	out := make(map[string]int)
	for _, p := range d.Paths() {
		out[fmt.Sprint(p.Path)] = p.Obs
	}
	return out
}

func TestDedupCollidingHashes(t *testing.T) {
	p, q := collidingPaths(t)
	if hashASNs(p) != hashASNs(q) {
		t.Fatalf("%v and %v do not collide", p, q)
	}

	d := New(asrel.IPv4)
	for _, path := range [][]asrel.ASN{p, q, p, p} {
		if err := d.AddPath(path, netip.Prefix{}, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.NumUniquePaths(); got != 2 {
		t.Fatalf("colliding paths %v, %v: %d unique paths, want 2", p, q, got)
	}
	want := map[string]int{fmt.Sprint(p): 3, fmt.Sprint(q): 1}
	if got := obsByPath(d); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("observations = %v, want %v", got, want)
	}

	l := NewLive(asrel.IPv4)
	ip, _, err := l.Retain(p, netip.Prefix{}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	iq, _, err := l.Retain(q, netip.Prefix{}, nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ip == iq {
		t.Fatalf("colliding paths share record %d", ip)
	}
	for range 2 {
		for _, c := range []struct {
			path []asrel.ASN
			idx  int32
		}{{q, iq}, {p, ip}} {
			if got, _, _ := l.Retain(c.path, netip.Prefix{}, nil, 0, false); got != c.idx {
				t.Errorf("re-retaining %v gave record %d, want %d", c.path, got, c.idx)
			}
		}
	}
}

// TestDedupAfterTableRebuild: AddPath after a Freeze that reordered
// the records, and after a Merge, rebuilds the table from the arena and
// dedups against the records already held.
func TestDedupAfterTableRebuild(t *testing.T) {
	paths := [][]asrel.ASN{{9, 8, 7}, {3, 2, 1}, {5, 4}, {1, 2, 3, 4, 5, 6, 7}, {2}}
	check := func(name string, d *Dataset) {
		t.Helper()
		if d.tab != nil {
			t.Fatalf("%s: table still built; the rebuild path is not under test", name)
		}
		want := make(map[string]int)
		for _, p := range paths {
			want[fmt.Sprint(p)] = 1
		}
		for _, p := range paths {
			if err := d.AddPath(p, netip.Prefix{}, nil, 0, false); err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(p)]++
		}
		if err := d.AddPath([]asrel.ASN{6, 6, 5}, netip.Prefix{}, nil, 0, false); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint([]asrel.ASN{6, 5})]++
		if got := obsByPath(d); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: observations = %v, want %v", name, got, want)
		}
	}

	frozen := New(asrel.IPv4)
	for _, p := range paths {
		if err := frozen.AddPath(p, netip.Prefix{}, nil, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	frozen.Freeze()
	check("Freeze", frozen)

	merged := New(asrel.IPv4)
	for s := range 2 {
		shard := New(asrel.IPv4)
		for i := s; i < len(paths); i += 2 {
			if err := shard.AddPath(paths[i], netip.Prefix{}, nil, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	check("Merge", merged)
}

// TestDedupAcrossGrowth: across several table doublings, every path
// stays one record and every record's observation count stays exact.
func TestDedupAcrossGrowth(t *testing.T) {
	const n = 1500
	d := New(asrel.IPv4)
	want := make(map[string]int, n)
	sizes := map[int]bool{}
	for round := range 3 {
		for i := range n {
			if i%3 < round {
				continue // path i is observed i%3+1 times in all
			}
			p := []asrel.ASN{asrel.ASN(i%97 + 1), asrel.ASN(1000 + i), asrel.ASN(i/97 + 5000)}
			if err := d.AddPath(p, netip.Prefix{}, nil, 0, false); err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(p)]++
			sizes[len(d.tab)] = true
		}
	}
	if len(sizes) < 4 {
		t.Fatalf("table took %d sizes, want at least 4 (three rehash boundaries)", len(sizes))
	}
	if got := d.NumUniquePaths(); got != n {
		t.Fatalf("unique paths = %d, want %d", got, n)
	}
	got := obsByPath(d)
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("path %s: %d observations, want %d", k, got[k], w)
		}
	}
}
