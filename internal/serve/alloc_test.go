package serve

import (
	"testing"

	"hybridrel/internal/asrel"
)

// TestLookupAllocs pins the per-request lookup path — the serve-side
// //hybridrel:hotpath functions — at zero allocations per operation.
// hybridlint's hotalloc analyzer forbids the allocating constructs
// statically; this is the dynamic backstop that catches anything the
// static check cannot see (interface boxing, escape-analysis
// regressions).
func TestLookupAllocs(t *testing.T) {
	_, snap, _ := fixtures(t)
	st := newState(snap)
	if len(snap.Links4) == 0 || len(snap.Hybrids) == 0 {
		t.Fatal("fixture world has no links/hybrids")
	}
	present := snap.Links4[0].Key
	hybrid := snap.Hybrids[0].Key
	asn := hybrid.Lo
	missing := asrel.LinkKey{Lo: 1, Hi: 2}

	cases := []struct {
		name string
		fn   func()
	}{
		{"lookupLink/hit", func() { lookupLink(st.snap.Links4, present) }},
		{"lookupLink/miss", func() { lookupLink(st.snap.Links4, missing) }},
		{"Index.Row/hit", func() { st.idx.Row(asn) }},
		{"Index.Row/miss", func() { st.idx.Row(asrel.ASN(4200000000)) }},
		{"Index.LinkPlanes/hit", func() { st.idx.LinkPlanes(present.Lo, present.Hi) }},
		{"Index.LinkPlanes/miss", func() { st.idx.LinkPlanes(missing.Lo, missing.Hi) }},
		{"Index.NeighborsOf", func() { st.idx.NeighborsOf(0) }},
		{"Index.HybridsOf", func() { st.idx.HybridsOf(0) }},
		{"Index.HybridsOfClass", func() { st.idx.HybridsOfClass(asrel.HybridOther) }},
		{"lookupHybrid/hit", func() { st.lookupHybrid(hybrid) }},
		{"lookupHybrid/miss", func() { st.lookupHybrid(missing) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
