package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/intern"
	"hybridrel/internal/serve"
)

// mix is a read traffic mix: the shares of each endpoint, and for
// /v1/rel the share of keys that are unobserved pairs (answered 404).
type mix struct {
	rel, as, hybrids float64
	unobserved       float64
}

// The serving mix of the issue's workloads: mostly per-link lookups,
// a quarter per-AS views (hub answers run to hundreds of KB), and a
// few paged hybrid listings.
var (
	serveMix = mix{rel: 0.70, as: 0.25, hybrids: 0.05, unobserved: 0.10}
	liveMix  = mix{rel: 0.75, as: 0.25, unobserved: 0.10}
)

// zipfS is the key-popularity skew: rank r is drawn with weight
// ~1/r^s, so hubs and the links between them are hot.
const zipfS = 1.01

// sampleEvery is the body-check stride: every sampleEvery-th request's
// body is decoded and compared in full; the rest are status-checked.
const sampleEvery = 8

// reads draws n requests from the expectation's key space. Links are
// ranked by the summed degree of their endpoints and ASes by degree,
// both zipf-drawn. strict checks every answer against the tables;
// otherwise (the snapshot churns under the reads) an observed key may
// also answer 404 and sampled bodies are checked for consistency only.
func (e *expect) reads(rng *rand.Rand, n int, m mix, strict bool) []request {
	links := e.rankedLinks()
	linkZ := rand.NewZipf(rng, zipfS, 1, uint64(len(links)-1))
	asZ := rand.NewZipf(rng, zipfS, 1, uint64(len(e.asOrder)-1))
	out := make([]request, n)
	for i := range out {
		sample := i%sampleEvery == 0
		u := rng.Float64()
		switch {
		case u < m.rel:
			var a, b asrel.ASN
			if rng.Float64() < m.unobserved {
				a, b = e.unobservedPair(asZ)
			} else {
				k := intern.Unpack(links[linkZ.Uint64()])
				a, b = k.Lo, k.Hi
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
			}
			out[i] = request{ep: "rel", path: fmt.Sprintf("/v1/rel?a=%d&b=%d", a, b), sample: sample,
				check: func(status int, body []byte, sample bool) error {
					if strict {
						return e.checkRel(a, b, status, body, sample)
					}
					return e.checkRelChurning(a, b, status, body, sample)
				}}
		case u < m.rel+m.as:
			a := e.asOrder[asZ.Uint64()]
			out[i] = request{ep: "as", path: fmt.Sprintf("/v1/as/%d", a), sample: sample,
				check: func(status int, body []byte, sample bool) error {
					if strict {
						return e.checkAS(a, status, body, sample)
					}
					return checkASChurning(a, status, body, sample)
				}}
		default:
			class := asrel.NotHybrid
			q := ""
			total := len(e.snap.Hybrids)
			if rng.Intn(3) == 0 {
				class = []asrel.HybridClass{asrel.HybridPeerTransit, asrel.HybridTransitPeer, asrel.HybridReversed}[rng.Intn(3)]
				q = "&class=" + []string{"", "h1", "h2", "h3"}[class]
				total = len(e.byClass[class])
			}
			offset := rng.Intn(max(total, 1))
			out[i] = request{ep: "hybrids", path: fmt.Sprintf("/v1/hybrids?offset=%d&limit=%d%s", offset, serve.DefaultLimit, q), sample: sample,
				check: func(status int, body []byte, sample bool) error {
					return e.checkHybrids(offset, serve.DefaultLimit, class, status, body, sample)
				}}
		}
	}
	return out
}

// rankedLinks returns every link of either plane, packed, ordered by
// the summed degree of its endpoints (descending). It is computed once
// per expectation.
func (e *expect) rankedLinks() []uint64 {
	if e.ranked != nil {
		return e.ranked
	}
	keys := make([]uint64, 0, len(e.keys4)+len(e.keys6))
	keys = append(keys, e.keys4...)
	keys = append(keys, e.keys6...)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	type weighted struct {
		w int
		k uint64
	}
	ws := make([]weighted, len(keys))
	for i, u := range keys {
		k := intern.Unpack(u)
		ws[i] = weighted{e.degree(k.Lo) + e.degree(k.Hi), u}
	}
	slices.SortStableFunc(ws, func(x, y weighted) int { return y.w - x.w })
	e.ranked = make([]uint64, len(ws))
	for i, w := range ws {
		e.ranked[i] = w.k
	}
	return e.ranked
}

// unobservedPair draws two ASes that share no link in either plane.
func (e *expect) unobservedPair(z *rand.Zipf) (asrel.ASN, asrel.ASN) {
	for {
		a, b := e.asOrder[z.Uint64()], e.asOrder[z.Uint64()]
		if a == b {
			continue
		}
		k := asrel.Key(a, b)
		if _, in6 := e.link6(k); !e.link4(k) && !in6 {
			return a, b
		}
	}
}

// checkRelChurning checks a /v1/rel answer while live updates swap the
// snapshot underneath: a pair never observed must stay 404; an
// observed link may vanish and return as its routes flap, so 404 is
// allowed for it, and a sampled 200 body must be self-consistent.
func (e *expect) checkRelChurning(a, b asrel.ASN, status int, body []byte, sample bool) error {
	k := asrel.Key(a, b)
	_, in6 := e.link6(k)
	if !e.link4(k) && !in6 {
		return wantStatus(status, http.StatusNotFound)
	}
	if status == http.StatusNotFound {
		return nil
	}
	if err := wantStatus(status, http.StatusOK); err != nil || !sample {
		return err
	}
	var got serve.RelResponse
	if err := decode(body, &got); err != nil {
		return err
	}
	if got.A != uint32(a) || got.B != uint32(b) || !(got.In4 || got.In6) ||
		got.DualStack != (got.In4 && got.In6) || got.Hybrid != (got.Class != "") ||
		(got.Hybrid && !got.DualStack) || (got.In6 != (got.Visibility6 > 0)) {
		return fmt.Errorf("rel %d-%d: inconsistent answer %+v", a, b, got)
	}
	return nil
}

// checkASChurning is checkRelChurning for /v1/as/{asn}: the degrees
// must agree with the neighbor list the same answer carries.
func checkASChurning(asn asrel.ASN, status int, body []byte, sample bool) error {
	if status == http.StatusNotFound {
		return nil
	}
	if err := wantStatus(status, http.StatusOK); err != nil || !sample {
		return err
	}
	var got serve.ASResponse
	if err := decode(body, &got); err != nil {
		return err
	}
	n4, n6 := 0, 0
	for _, n := range got.Neighbors {
		if n.In4 {
			n4++
		}
		if n.In6 {
			n6++
		}
	}
	if got.ASN != uint32(asn) || n4 != got.Degree4 || n6 != got.Degree6 {
		return fmt.Errorf("as %d: inconsistent answer (asn=%d deg4=%d/%d deg6=%d/%d)",
			asn, got.ASN, got.Degree4, n4, got.Degree6, n6)
	}
	return nil
}
