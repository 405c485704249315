package communities

import (
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/bgp"
	"hybridrel/internal/community"
	"hybridrel/internal/dataset"
	"hybridrel/internal/gen"
	"hybridrel/internal/infer"
	"hybridrel/internal/testutil"
)

func obs(path []asrel.ASN, comms ...bgp.Community) *dataset.PathObs {
	return &dataset.PathObs{Vantage: path[0], Path: path, Communities: comms}
}

func dict(t *testing.T, entries map[bgp.Community]community.Meaning) *community.Dictionary {
	t.Helper()
	d := community.NewDictionary()
	for c, m := range entries {
		d.Set(c, m)
	}
	return d
}

func TestInferAttribution(t *testing.T) {
	// Path 10 ← 20 ← 30 (10 is vantage, 30 origin). AS20 tags "from
	// customer" for the route it got from 30, AS10 tags "from peer" for
	// the route from 20.
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(20, 100): community.MeaningCustomer,
		bgp.MakeCommunity(10, 77):  community.MeaningPeer,
	})
	paths := []*dataset.PathObs{
		obs([]asrel.ASN{10, 20, 30}, bgp.MakeCommunity(20, 100), bgp.MakeCommunity(10, 77)),
	}
	res := Infer(paths, d)
	if res.Table.Get(20, 30) != asrel.P2C {
		t.Errorf("rel(20,30) = %s, want p2c", res.Table.Get(20, 30))
	}
	if res.Table.Get(10, 20) != asrel.P2P {
		t.Errorf("rel(10,20) = %s, want p2p", res.Table.Get(10, 20))
	}
	if res.TaggedPaths != 1 {
		t.Errorf("TaggedPaths = %d", res.TaggedPaths)
	}
}

func TestInferSkipsUnusableTags(t *testing.T) {
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(99, 1):  community.MeaningCustomer, // 99 not on path
		bgp.MakeCommunity(30, 2):  community.MeaningCustomer, // origin: unattributable
		bgp.MakeCommunity(20, 90): community.MeaningTE,       // TE, not a relationship
	})
	paths := []*dataset.PathObs{
		obs([]asrel.ASN{10, 20, 30},
			bgp.MakeCommunity(99, 1),
			bgp.MakeCommunity(30, 2),
			bgp.MakeCommunity(20, 90),
			bgp.MakeCommunity(20, 12345), // undocumented
		),
	}
	res := Infer(paths, d)
	if res.Table.Len() != 0 {
		t.Errorf("table = %d entries, want 0", res.Table.Len())
	}
	if res.OffPathTags != 2 {
		t.Errorf("OffPathTags = %d, want 2", res.OffPathTags)
	}
	if res.TERoutes != 1 {
		t.Errorf("TERoutes = %d", res.TERoutes)
	}
	if res.TaggedPaths != 0 {
		t.Errorf("TaggedPaths = %d", res.TaggedPaths)
	}
}

func TestInferVoteAggregation(t *testing.T) {
	// Conflicting evidence across paths for link 20-30: two customer
	// tags and one peer tag → transit wins.
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(20, 100): community.MeaningCustomer,
		bgp.MakeCommunity(20, 200): community.MeaningPeer,
	})
	paths := []*dataset.PathObs{
		obs([]asrel.ASN{11, 20, 30}, bgp.MakeCommunity(20, 100)),
		obs([]asrel.ASN{12, 20, 30}, bgp.MakeCommunity(20, 100)),
		obs([]asrel.ASN{13, 20, 30}, bgp.MakeCommunity(20, 200)),
	}
	res := Infer(paths, d)
	if got := res.Table.Get(20, 30); got != asrel.P2C {
		t.Errorf("rel(20,30) = %s, want p2c by majority", got)
	}
	v := res.Votes.Get(asrel.Key(20, 30))
	if v == nil || v.Total() != 3 {
		t.Errorf("votes = %+v", v)
	}
}

// TestInferAgainstGroundTruth is the package's core property: on the
// synthetic world, every relationship the miner asserts must match the
// ground truth of the corresponding plane (communities never lie in the
// model; coverage, not correctness, is the limiting factor).
func TestInferAgainstGroundTruth(t *testing.T) {
	w, err := testutil.BuildWorld(gen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ds    func() []*dataset.PathObs
		truth *asrel.Table
		links []asrel.LinkKey
	}{
		{"v6", w.D6.Paths, w.In.Truth6, w.D6.Links()},
		{"v4", w.D4.Paths, w.In.Truth4, w.D4.Links()},
	} {
		res := Infer(tc.ds(), w.Dict)
		s := infer.ScoreTable(res.Table, tc.truth, tc.links)
		if s.Classified == 0 {
			t.Fatalf("%s: nothing classified", tc.name)
		}
		if s.Accuracy() < 0.999 {
			t.Errorf("%s: accuracy = %.4f (%d/%d); communities must not misinfer",
				tc.name, s.Accuracy(), s.Correct, s.Classified)
		}
		cov := s.Coverage()
		if cov < 0.40 || cov > 0.95 {
			t.Errorf("%s: coverage = %.3f, want realistic partial coverage", tc.name, cov)
		}
		t.Logf("%s: coverage %.1f%%, accuracy %.2f%%", tc.name, 100*cov, 100*s.Accuracy())
	}
}

func TestInferEmptyInputs(t *testing.T) {
	res := Infer(nil, community.NewDictionary())
	if res.Table.Len() != 0 || res.TaggedPaths != 0 {
		t.Error("empty inference produced output")
	}
}

// votesSeen counts emissions for TestPathVotesNoAlloc; a package
// variable keeps the emit function capture-free.
var votesSeen int

// TestPathVotesNoAlloc pins PathVotes' allocation contract: mining a
// path, with every kind of tag on it, allocates nothing. The path is
// longer than eight ASes, past the size a per-path index could keep on
// the stack.
func TestPathVotesNoAlloc(t *testing.T) {
	d := dict(t, map[bgp.Community]community.Meaning{
		bgp.MakeCommunity(20, 100): community.MeaningCustomer,
		bgp.MakeCommunity(10, 77):  community.MeaningPeer,
		bgp.MakeCommunity(99, 1):   community.MeaningCustomer, // off the path
		bgp.MakeCommunity(110, 2):  community.MeaningCustomer, // origin
		bgp.MakeCommunity(30, 90):  community.MeaningTE,
	})
	p := obs([]asrel.ASN{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110},
		bgp.MakeCommunity(20, 100), bgp.MakeCommunity(10, 77), bgp.MakeCommunity(99, 1),
		bgp.MakeCommunity(110, 2), bgp.MakeCommunity(30, 90), bgp.MakeCommunity(30, 5))
	emit := func(tagger, neighbor asrel.ASN, rel asrel.Rel) { votesSeen++ }
	votesSeen = 0
	allocs := testing.AllocsPerRun(100, func() {
		if contributed, offPath, hasTE := PathVotes(p, d, emit); !contributed || offPath != 2 || !hasTE {
			t.Fatalf("PathVotes = %v, %d, %v; want true, 2, true", contributed, offPath, hasTE)
		}
	})
	if allocs != 0 {
		t.Errorf("PathVotes allocates %.1f objects/op, want 0", allocs)
	}
	if votesSeen != 2*101 { // two usable tags, 100 runs plus the warm-up
		t.Errorf("emitted %d votes over 101 calls, want %d", votesSeen, 2*101)
	}
}
