// Package scale builds Internet-scale synthetic worlds directly in the
// snapshot's flat representation — no per-AS maps, no graph objects, no
// pipeline — so the 100k-AS, millions-of-links tier generates in
// seconds and the serving and snapshot layers can be exercised at sizes
// the full measurement pipeline (internal/gen + MRT synthesis) cannot
// reach in test time.
//
// Construction is sharded: every per-AS decision (role, IPv6
// enablement, provider/peer draws) flows from an RNG derived solely
// from (Config.Seed, AS index), and every per-link decision (dual
// stacking, hybrid planting, visibility) from (Config.Seed, packed
// key), so shards never communicate. The merge is a parallel sort of
// packed link records followed by a linear dedup sweep — the sorted
// multiset is unique, so the output is byte-identical at any
// Parallelism, which Fingerprint pins.
//
// The generated world follows the same macro shape as internal/gen: a
// tier-1 clique, a power-law transit hierarchy (preferential
// attachment to early, high-fitness transits), stub IXP peering, a
// partially IPv6-enabled population, and a planted hybrid mix split
// between H1 (v4 p2p → v6 transit) and H2 (v4 transit → v6 p2p) with
// rare H3 reversals. Headline statistics (coverage, census,
// visibility, valley) are filled deterministically from the generated
// arrays so /v1/stats and the snapshot stats section carry plausible,
// bounded values.
package scale

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
	"hybridrel/internal/snapshot"
)

// asnBase keeps generated ASNs clear of the reserved low range while
// leaving packed sort keys room for the 3 relationship-priority bits:
// with NumASes <= maxASes every ASN stays below 2^17, so
// Pack(key)<<3 never overflows.
const (
	asnBase = 4200
	maxASes = 1<<17 - asnBase - 1
)

// Tier100kHeapCeiling is the live-heap budget the 100k-tier build must
// fit under (asserted by the scale tests and the CI bench smoke): the
// world is ~1.7M links at 16 bytes each plus tables and scratch, well
// under a gigabyte, and any structure that reintroduced per-AS maps or
// per-link boxing would blow through it immediately.
const Tier100kHeapCeiling = 1 << 30

// Config holds the scale-generator knobs. All randomness flows from
// Seed; Parallelism affects wall time only, never output.
type Config struct {
	Seed     int64
	NumASes  int
	NumTier1 int
	// TransitFraction is the probability a non-tier-1 AS is a transit
	// provider; the rest are stubs.
	TransitFraction float64
	// AvgProviders is the mean provider count of a non-tier-1 AS
	// (geometric, minimum 1).
	AvgProviders float64
	// TransitPeerAvg / StubPeerAvg are the mean peering links a transit
	// AS / stub initiates toward smaller-index ASes of its kind.
	TransitPeerAvg float64
	StubPeerAvg    float64
	// V6TransitProb / V6StubProb control IPv6 enablement (tier-1 ASes
	// are always enabled); DualStackLinkProb is the chance a v4 link
	// between enabled ASes also carries IPv6; V6PeerAvg adds v6-only
	// peerings per IPv6 transit (the dense 2010 v6 mesh).
	V6TransitProb     float64
	V6StubProb        float64
	DualStackLinkProb float64
	V6PeerAvg         float64
	// HybridFraction of dual-stack links get a different IPv6
	// relationship; of the v4-p2p ones all become H1, of the v4-transit
	// ones H3ReversalProb become H3 and the rest H2.
	HybridFraction float64
	H3ReversalProb float64
	// NumVantages bounds per-link visibility draws.
	NumVantages int
	// Parallelism is the worker count for the sharded construction and
	// the merge sort; 0 means GOMAXPROCS. Output is identical at any
	// value — the determinism test pins 1 vs N.
	Parallelism int
}

// Tier600, Tier10k and Tier100k are the benchmark-tier presets. The
// 100k tier targets the shape of the August 2010 measurement: ~17%
// transit, mean ~3 providers, and a link count in the low millions.
func Tier600() Config {
	c := Tier10k()
	c.NumASes = 600
	c.NumTier1 = 6
	c.NumVantages = 24
	return c
}

func Tier10k() Config {
	return Config{
		Seed:              42,
		NumASes:           10_000,
		NumTier1:          8,
		TransitFraction:   0.17,
		AvgProviders:      2.2,
		TransitPeerAvg:    5,
		StubPeerAvg:       3,
		V6TransitProb:     0.62,
		V6StubProb:        0.14,
		DualStackLinkProb: 0.80,
		V6PeerAvg:         2,
		HybridFraction:    0.13,
		H3ReversalProb:    0.02,
		NumVantages:       32,
	}
}

func Tier100k() Config {
	c := Tier10k()
	c.NumASes = 100_000
	c.NumTier1 = 12
	c.AvgProviders = 3
	c.TransitPeerAvg = 8
	c.StubPeerAvg = 15
	c.NumVantages = 64
	return c
}

func (c Config) validate() error {
	switch {
	case c.NumTier1 < 2:
		return fmt.Errorf("scale: NumTier1 must be at least 2")
	case c.NumASes < c.NumTier1+10:
		return fmt.Errorf("scale: NumASes too small for the tier structure")
	case c.NumASes > maxASes:
		return fmt.Errorf("scale: NumASes above %d overflows the packed sort-key space", maxASes)
	case c.NumVantages < 1:
		return fmt.Errorf("scale: NumVantages must be at least 1")
	case c.HybridFraction < 0 || c.HybridFraction > 0.5:
		return fmt.Errorf("scale: HybridFraction out of range [0, 0.5]")
	}
	return nil
}

// rng is a splitmix64 stream: cheap to derive by value, so every AS
// and link gets an independent deterministic stream with no shared
// state between shards.
type rng struct{ s uint64 }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// derive seeds a stream from the config seed, a domain tag, and an
// entity index (AS index or packed link key).
func derive(seed int64, tag, idx uint64) rng {
	return rng{mix64(uint64(seed) ^ tag*0x9e3779b97f4a7c15 ^ mix64(idx))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// poisson draws a Poisson(lambda) variate (Knuth's product method;
// lambda stays small enough here that the loop is short).
func (r *rng) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Relationship priority codes packed into the low 3 bits of a sort
// key. Lower wins at dedup, so a link drawn both as transit and as
// peering resolves to transit — deterministically, whatever order the
// draws landed in.
const (
	priP2C = 0 // lo provides transit to hi
	priC2P = 1 // lo buys transit from hi
	priP2P = 2
)

func priRel(pri uint64) asrel.Rel {
	switch pri {
	case priP2C:
		return asrel.P2C
	case priC2P:
		return asrel.C2P
	default:
		return asrel.P2P
	}
}

// sortKey packs (lo, hi, priority) into one uint64: the packed link
// key in the high bits keeps equal links adjacent after sorting, the
// priority in the low 3 bits makes the first record of each run the
// winner.
func sortKey(a, b asrel.ASN, pri uint64) uint64 {
	k := asrel.Key(a, b)
	key := intern.Pack(k) << 3
	if a > b {
		// Canonicalizing the key flips the orientation of transit rels.
		switch pri {
		case priP2C:
			pri = priC2P
		case priC2P:
			pri = priP2C
		}
	}
	return key | pri
}

// roles precomputes, serially and in O(n), everything the sharded link
// builders need to agree on: per-AS tier, IPv6 enablement, and the
// fitness prefix sums used for preferential attachment.
type roles struct {
	transit []bool
	v6      []bool
	// transitIdx / stubIdx / v6TransitIdx list the AS indexes of each
	// kind in ascending order; transitFit / v6Fit are the matching
	// fitness prefix sums (power-law weights, so early transits become
	// the high-degree cores).
	transitIdx, stubIdx, v6TransitIdx []int32
	transitFit, v6Fit                 []float64
}

func buildRoles(cfg Config) *roles {
	n := cfg.NumASes
	ro := &roles{transit: make([]bool, n), v6: make([]bool, n)}
	for i := 0; i < n; i++ {
		r := derive(cfg.Seed, 'R', uint64(i))
		tier1 := i < cfg.NumTier1
		ro.transit[i] = tier1 || r.float64() < cfg.TransitFraction
		switch {
		case tier1:
			ro.v6[i] = true
		case ro.transit[i]:
			ro.v6[i] = r.float64() < cfg.V6TransitProb
		default:
			ro.v6[i] = r.float64() < cfg.V6StubProb
		}
		if ro.transit[i] {
			rank := len(ro.transitIdx)
			ro.transitIdx = append(ro.transitIdx, int32(i))
			ro.transitFit = append(ro.transitFit, prefixAdd(ro.transitFit, fitness(rank)))
			if ro.v6[i] {
				vrank := len(ro.v6TransitIdx)
				ro.v6TransitIdx = append(ro.v6TransitIdx, int32(i))
				ro.v6Fit = append(ro.v6Fit, prefixAdd(ro.v6Fit, fitness(vrank)))
			}
		} else {
			ro.stubIdx = append(ro.stubIdx, int32(i))
		}
	}
	return ro
}

// fitness is the attachment weight of the rank-th transit AS: a
// power-law decay, so the first few transits collect degrees orders of
// magnitude above the tail — the Internet's heavy-tailed core.
func fitness(rank int) float64 { return math.Pow(float64(rank+8), -0.75) }

func prefixAdd(prefix []float64, w float64) float64 {
	if len(prefix) == 0 {
		return w
	}
	return prefix[len(prefix)-1] + w
}

// pickWeighted draws an index in [0, limit) distributed by the fitness
// prefix sums: one float draw plus one binary search.
func pickWeighted(r *rng, prefix []float64, limit int) int {
	x := r.float64() * prefix[limit-1]
	lo, hi := 0, limit-1
	for lo < hi {
		mid := (lo + hi) / 2
		if prefix[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countBelow returns how many entries of the ascending index list are
// smaller than i.
func countBelow(idx []int32, i int) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(idx[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func asn(i int) asrel.ASN { return asrel.ASN(asnBase + i) }

// shardLinks builds the v4 link records and the v6-only peering
// records for AS indexes [lo, hi). Everything is derived from per-AS
// streams, so shards are fully independent.
func shardLinks(cfg Config, ro *roles, lo, hi int) (v4, v6only []uint64) {
	for i := lo; i < hi; i++ {
		tier1 := i < cfg.NumTier1
		r := derive(cfg.Seed, 'L', uint64(i))
		if tier1 {
			// The clique: each member links to every smaller member.
			for j := 0; j < i; j++ {
				v4 = append(v4, sortKey(asn(i), asn(j), priP2P))
			}
		} else {
			// Providers: geometric count with mean AvgProviders, drawn
			// from the transit population below i by fitness.
			extra := 0.0
			if cfg.AvgProviders > 1 {
				extra = 1 - 1/cfg.AvgProviders
			}
			d := 1
			for r.float64() < extra && d < 12 {
				d++
			}
			t := countBelow(ro.transitIdx, i)
			for k := 0; k < d && t > 0; k++ {
				j := int(ro.transitIdx[pickWeighted(&r, ro.transitFit, t)])
				v4 = append(v4, sortKey(asn(i), asn(j), priC2P))
			}
		}
		if ro.transit[i] && !tier1 {
			// Settlement-free peering among transits.
			t := countBelow(ro.transitIdx, i)
			for k, m := 0, r.poisson(cfg.TransitPeerAvg); k < m && t > 0; k++ {
				j := int(ro.transitIdx[pickWeighted(&r, ro.transitFit, t)])
				if j != i {
					v4 = append(v4, sortKey(asn(i), asn(j), priP2P))
				}
			}
		}
		if !ro.transit[i] {
			// IXP-style stub peering, uniform over smaller stubs.
			s := countBelow(ro.stubIdx, i)
			for k, m := 0, r.poisson(cfg.StubPeerAvg); k < m && s > 0; k++ {
				j := int(ro.stubIdx[r.intn(s)])
				v4 = append(v4, sortKey(asn(i), asn(j), priP2P))
			}
		}
		if ro.transit[i] && ro.v6[i] {
			// The v6-only peering mesh among IPv6 transits.
			t := countBelow(ro.v6TransitIdx, i)
			for k, m := 0, r.poisson(cfg.V6PeerAvg); k < m && t > 0; k++ {
				j := int(ro.v6TransitIdx[pickWeighted(&r, ro.v6Fit, t)])
				if j != i {
					v6only = append(v6only, sortKey(asn(i), asn(j), priP2P))
				}
			}
		}
	}
	return v4, v6only
}

// dedup collapses sorted link records to one record per packed key.
// Records sort by (key, priority), so the first of each run carries
// the winning relationship.
func dedup(recs []uint64) []uint64 {
	out := recs[:0]
	for i := 0; i < len(recs); {
		out = append(out, recs[i])
		key := recs[i] >> 3
		for i < len(recs) && recs[i]>>3 == key {
			i++
		}
	}
	return out
}

// Build generates the world and returns it as a served-form snapshot:
// sorted relationship tables, sorted link sets, the hybrid list in
// visibility order, and deterministic headline statistics.
func Build(cfg Config) (*snapshot.Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.NumASes {
		workers = cfg.NumASes
	}
	ro := buildRoles(cfg)

	// Shard the per-AS link construction.
	v4Parts := make([][]uint64, workers)
	v6Parts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * cfg.NumASes / workers
		hi := (w + 1) * cfg.NumASes / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			v4Parts[w], v6Parts[w] = shardLinks(cfg, ro, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()

	// Deterministic merge: concatenate (any order — the sort erases
	// it), parallel-sort, dedup by packed key with priority tiebreak.
	v4recs := dedup(sortConcat(v4Parts))
	v6only := dedup(sortConcat(v6Parts))

	return assemble(cfg, ro, v4recs, v6only), nil
}

func sortConcat(parts [][]uint64) []uint64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]uint64, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	intern.SortPacked(all)
	return all
}

// assemble turns the deduped link records into the snapshot: the v6
// plane is derived link-by-link (dual-stacking, hybrid planting,
// v6-only merge), relationship tables are appended in the already
// sorted order, and the stats block is filled deterministically.
func assemble(cfg Config, ro *roles, v4recs, v6only []uint64) *snapshot.Snapshot {
	s := &snapshot.Snapshot{}
	var b4, b6 intern.TableBuilder
	b4.Grow(len(v4recs))
	s.Links4 = make([]snapshot.Link, 0, len(v4recs))
	vis := func(key uint64, plane uint64) int {
		r := derive(cfg.Seed, 'V'+plane, key)
		return 1 + r.intn(cfg.NumVantages)
	}

	type v6link struct {
		key  uint64
		rel  asrel.Rel
		vis  int
		hyb  asrel.HybridClass
		rel4 asrel.Rel
	}
	var v6links []v6link
	dual := 0
	for _, rec := range v4recs {
		key, pri := rec>>3, rec&7
		k := intern.Unpack(key)
		rel4 := priRel(pri)
		s.Links4 = append(s.Links4, snapshot.Link{Key: k, Visibility: vis(key, 0)})
		// TableBuilder.Append only errors on out-of-order keys; v4recs
		// is sorted and deduped, so the error is impossible here.
		_ = b4.Append(k, rel4)

		lo, hi := int(k.Lo)-asnBase, int(k.Hi)-asnBase
		if !ro.v6[lo] || !ro.v6[hi] {
			continue
		}
		r := derive(cfg.Seed, 'D', key)
		if r.float64() >= cfg.DualStackLinkProb {
			continue
		}
		dual++
		rel6 := rel4
		cls := asrel.NotHybrid
		if r.float64() < cfg.HybridFraction {
			if rel4 == asrel.P2P {
				// H1: free v6 transit over a settled v4 peering.
				rel6 = asrel.P2C
				if r.float64() < 0.5 {
					rel6 = asrel.C2P
				}
			} else if r.float64() < cfg.H3ReversalProb {
				// H3: provider and customer swap roles in v6.
				if rel6 = asrel.P2C; rel4 == asrel.P2C {
					rel6 = asrel.C2P
				}
			} else {
				// H2: the v4 transit relationship relaxes to open peering.
				rel6 = asrel.P2P
			}
			cls = asrel.Classify(rel4, rel6)
		}
		v6links = append(v6links, v6link{key: key, rel: rel6, vis: vis(key, 1), hyb: cls, rel4: rel4})
	}

	// Merge the v6-only peerings, skipping keys the dual-stack pass
	// already produced (both lists are sorted by key).
	j := 0
	var merged []v6link
	for _, rec := range v6only {
		key := rec >> 3
		for j < len(v6links) && v6links[j].key < key {
			merged = append(merged, v6links[j])
			j++
		}
		if j < len(v6links) && v6links[j].key == key {
			continue
		}
		merged = append(merged, v6link{key: key, rel: asrel.P2P, vis: vis(key, 1)})
	}
	merged = append(merged, v6links[j:]...)

	b6.Grow(len(merged))
	s.Links6 = make([]snapshot.Link, 0, len(merged))
	for _, l := range merged {
		k := intern.Unpack(l.key)
		s.Links6 = append(s.Links6, snapshot.Link{Key: k, Visibility: l.vis})
		_ = b6.Append(k, l.rel)
		if l.hyb != asrel.NotHybrid {
			s.Hybrids = append(s.Hybrids, core.HybridLink{
				Key: k, V4: l.rel4, V6: l.rel, Class: l.hyb, Visibility: l.vis,
			})
		}
	}
	s.Rel4, s.Rel6 = b4.Table(), b6.Table()
	sortHybrids(s.Hybrids)
	fillStats(cfg, ro, s, dual)
	return s
}

// sortHybrids orders the hybrid list the way the analysis layer does:
// descending visibility, then ascending key.
func sortHybrids(hs []core.HybridLink) {
	slices.SortFunc(hs, func(a, b core.HybridLink) int {
		if a.Visibility != b.Visibility {
			return b.Visibility - a.Visibility
		}
		ka, kb := intern.Pack(a.Key), intern.Pack(b.Key)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
}

// fillStats derives the headline statistics deterministically from the
// generated arrays: link and dual counts are exact, endpoint-degree
// means are computed from the real v6 graph, and the path-corpus
// figures (paths, hybrid visibility share, valley split) are synthetic
// but plausible and bounded.
func fillStats(cfg Config, ro *roles, s *snapshot.Snapshot, dual int) {
	deg6 := make([]int, cfg.NumASes)
	for _, l := range s.Links6 {
		deg6[int(l.Key.Lo)-asnBase]++
		deg6[int(l.Key.Hi)-asnBase]++
	}
	var hybDegSum, hybEnds int
	for _, h := range s.Hybrids {
		hybDegSum += deg6[int(h.Key.Lo)-asnBase] + deg6[int(h.Key.Hi)-asnBase]
		hybEnds += 2
	}
	var dualDegSum, dualEnds int
	for _, l := range s.Links6 {
		dualDegSum += deg6[int(l.Key.Lo)-asnBase] + deg6[int(l.Key.Hi)-asnBase]
		dualEnds += 2
	}

	v6ASes := 0
	for _, on := range ro.v6 {
		if on {
			v6ASes++
		}
	}
	paths := v6ASes * cfg.NumVantages

	s.Coverage = core.Coverage{
		Paths6:             paths,
		Links6:             len(s.Links6),
		Links4:             len(s.Links4),
		DualStack:          dual,
		Classified6:        len(s.Links6),
		ClassifiedDual:     dual,
		ClassifiedDualBoth: dual,
	}
	s.Census = core.HybridCensus{
		DualClassified: dual,
		Hybrid:         len(s.Hybrids),
		ByClass:        map[asrel.HybridClass]int{},
	}
	for _, h := range s.Hybrids {
		s.Census.ByClass[h.Class]++
	}
	s.Visibility = core.Visibility{
		Paths:                    paths,
		PathsWithHybrid:          paths * 28 / 100,
		MeanHybridEndpointDegree: ratio(hybDegSum, hybEnds),
		MeanDualEndpointDegree:   ratio(dualDegSum, dualEnds),
	}
	s.Valley.Total = paths
	s.Valley.Valley = paths * 13 / 100
	s.Valley.ValleyFree = paths - s.Valley.Valley
	s.Valley.Necessary = s.Valley.Valley / 3
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Fingerprint hashes the snapshot's canonical fixed-width encoding
// (EncodeV2, format v3; FNV-1a). Two snapshots fingerprint equal iff
// they are byte-identical on the wire, which is how the determinism
// gate compares Parallelism=1 against Parallelism=N.
func Fingerprint(s *snapshot.Snapshot) (uint64, error) {
	h := fnv.New64a()
	if err := snapshot.EncodeV2(h, s); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
