package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/intern"
	"hybridrel/internal/serve"
	"hybridrel/internal/snapshot"
)

// expect is the harness's own index over a served snapshot's tables:
// what every answer must say, derived without the serving layer's
// code. It is built outside every timed window.
type expect struct {
	snap         *snapshot.Snapshot
	keys4, keys6 []uint64 // packed link keys, in the snapshot's canonical order
	hybrids      map[uint64]core.HybridLink
	ases         map[asrel.ASN]*asFacts
	asOrder      []asrel.ASN // ASes by descending degree, ties by ASN
	ranked       []uint64    // links by descending endpoint degree; see rankedLinks
	byClass      map[asrel.HybridClass][]core.HybridLink
}

type asFacts struct {
	deg4, deg6, hybrids int
}

func newExpect(s *snapshot.Snapshot) *expect {
	e := &expect{
		snap:    s,
		keys4:   packed(s.Links4),
		keys6:   packed(s.Links6),
		hybrids: make(map[uint64]core.HybridLink, len(s.Hybrids)),
		ases:    make(map[asrel.ASN]*asFacts),
		byClass: make(map[asrel.HybridClass][]core.HybridLink),
	}
	facts := func(a asrel.ASN) *asFacts {
		f := e.ases[a]
		if f == nil {
			f = &asFacts{}
			e.ases[a] = f
		}
		return f
	}
	for _, l := range s.Links4 {
		facts(l.Key.Lo).deg4++
		facts(l.Key.Hi).deg4++
	}
	for _, l := range s.Links6 {
		facts(l.Key.Lo).deg6++
		facts(l.Key.Hi).deg6++
	}
	for _, h := range s.Hybrids {
		e.hybrids[intern.Pack(h.Key)] = h
		e.byClass[h.Class] = append(e.byClass[h.Class], h)
		facts(h.Key.Lo).hybrids++
		facts(h.Key.Hi).hybrids++
	}
	for a := range e.ases {
		e.asOrder = append(e.asOrder, a)
	}
	slices.SortFunc(e.asOrder, func(x, y asrel.ASN) int {
		dx, dy := e.degree(x), e.degree(y)
		if dx != dy {
			return dy - dx
		}
		return int(x) - int(y)
	})
	return e
}

func packed(ls []snapshot.Link) []uint64 {
	out := make([]uint64, len(ls))
	for i, l := range ls {
		out[i] = intern.Pack(l.Key)
	}
	return out
}

func (e *expect) degree(a asrel.ASN) int {
	f := e.ases[a]
	return f.deg4 + f.deg6
}

func (e *expect) link4(k asrel.LinkKey) bool {
	_, ok := slices.BinarySearch(e.keys4, intern.Pack(k))
	return ok
}

// link6 reports whether k is an IPv6 link and its path visibility.
func (e *expect) link6(k asrel.LinkKey) (int, bool) {
	i, ok := slices.BinarySearch(e.keys6, intern.Pack(k))
	if !ok {
		return 0, false
	}
	return e.snap.Links6[i].Visibility, true
}

func wantStatus(got, want int) error {
	if got != want {
		return fmt.Errorf("status %d, want %d", got, want)
	}
	return nil
}

func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	return nil
}

// checkRel checks a /v1/rel answer for the pair (a, b).
func (e *expect) checkRel(a, b asrel.ASN, status int, body []byte, sample bool) error {
	k := asrel.Key(a, b)
	in4 := e.link4(k)
	vis6, in6 := e.link6(k)
	if !in4 && !in6 {
		return wantStatus(status, http.StatusNotFound)
	}
	if err := wantStatus(status, http.StatusOK); err != nil || !sample {
		return err
	}
	var got serve.RelResponse
	if err := decode(body, &got); err != nil {
		return err
	}
	want := serve.RelResponse{
		A: uint32(a), B: uint32(b),
		V4: e.snap.Rel4.Get(a, b).String(), V6: e.snap.Rel6.Get(a, b).String(),
		In4: in4, In6: in6, DualStack: in4 && in6, Visibility6: vis6,
	}
	if h, ok := e.hybrids[intern.Pack(k)]; ok {
		want.Hybrid, want.Class = true, h.Class.String()
	}
	if got != want {
		return fmt.Errorf("rel %d-%d: got %+v, want %+v", a, b, got, want)
	}
	return nil
}

// checkAS checks a /v1/as/{asn} answer: degrees against the link
// tables, every neighbor entry against both planes, and the hybrid
// list against the snapshot's hybrids.
func (e *expect) checkAS(asn asrel.ASN, status int, body []byte, sample bool) error {
	f, ok := e.ases[asn]
	if !ok {
		return wantStatus(status, http.StatusNotFound)
	}
	if err := wantStatus(status, http.StatusOK); err != nil || !sample {
		return err
	}
	var got serve.ASResponse
	if err := decode(body, &got); err != nil {
		return err
	}
	if got.ASN != uint32(asn) || got.Degree4 != f.deg4 || got.Degree6 != f.deg6 {
		return fmt.Errorf("as %d: header asn=%d deg4=%d deg6=%d, want deg4=%d deg6=%d",
			asn, got.ASN, got.Degree4, got.Degree6, f.deg4, f.deg6)
	}
	n4, n6 := 0, 0
	for i, n := range got.Neighbors {
		if i > 0 && n.ASN <= got.Neighbors[i-1].ASN {
			return fmt.Errorf("as %d: neighbors not strictly ascending at %d", asn, n.ASN)
		}
		nb := asrel.ASN(n.ASN)
		k := asrel.Key(asn, nb)
		in4 := e.link4(k)
		vis6, in6 := e.link6(k)
		want := serve.NeighborJSON{
			ASN: n.ASN, In4: in4, In6: in6, DualStack: in4 && in6,
			V4: e.snap.Rel4.Get(asn, nb).String(), V6: e.snap.Rel6.Get(asn, nb).String(),
			Visibility6: vis6,
		}
		if h, ok := e.hybrids[intern.Pack(k)]; ok {
			want.Hybrid, want.Class = true, h.Class.String()
		}
		if n != want {
			return fmt.Errorf("as %d neighbor: got %+v, want %+v", asn, n, want)
		}
		if in4 {
			n4++
		}
		if in6 {
			n6++
		}
	}
	if n4 != f.deg4 || n6 != f.deg6 {
		return fmt.Errorf("as %d: %d/%d neighbors listed per plane, want %d/%d", asn, n4, n6, f.deg4, f.deg6)
	}
	if len(got.Hybrids) != f.hybrids {
		return fmt.Errorf("as %d: %d hybrids listed, want %d", asn, len(got.Hybrids), f.hybrids)
	}
	for _, hj := range got.Hybrids {
		if err := e.checkHybrid(hj); err != nil {
			return fmt.Errorf("as %d: %w", asn, err)
		}
	}
	return nil
}

func (e *expect) checkHybrid(hj serve.HybridJSON) error {
	h, ok := e.hybrids[intern.Pack(asrel.LinkKey{Lo: asrel.ASN(hj.A), Hi: asrel.ASN(hj.B)})]
	if !ok {
		return fmt.Errorf("hybrid %d-%d is not in the snapshot", hj.A, hj.B)
	}
	if want := hybridJSON(h); hj != want {
		return fmt.Errorf("hybrid: got %+v, want %+v", hj, want)
	}
	return nil
}

func hybridJSON(h core.HybridLink) serve.HybridJSON {
	return serve.HybridJSON{
		A: uint32(h.Key.Lo), B: uint32(h.Key.Hi),
		V4: h.V4.String(), V6: h.V6.String(),
		Class: h.Class.String(), Visibility: h.Visibility,
	}
}

// checkHybrids checks one /v1/hybrids page; class is NotHybrid for an
// unfiltered request.
func (e *expect) checkHybrids(offset, limit int, class asrel.HybridClass, status int, body []byte, sample bool) error {
	if err := wantStatus(status, http.StatusOK); err != nil || !sample {
		return err
	}
	var got serve.HybridsResponse
	if err := decode(body, &got); err != nil {
		return err
	}
	all := e.snap.Hybrids
	wantClass := ""
	if class != asrel.NotHybrid {
		all, wantClass = e.byClass[class], class.String()
	}
	limit = min(limit, serve.MaxLimit)
	page := all[min(offset, len(all)):min(offset+limit, len(all))]
	if got.Total != len(all) || got.Offset != offset || got.Limit != limit || got.Class != wantClass || len(got.Hybrids) != len(page) {
		return fmt.Errorf("hybrids page: total=%d offset=%d limit=%d class=%q n=%d, want %d/%d/%d/%q/%d",
			got.Total, got.Offset, got.Limit, got.Class, len(got.Hybrids), len(all), offset, limit, wantClass, len(page))
	}
	for i, h := range page {
		if want := hybridJSON(h); got.Hybrids[i] != want {
			return fmt.Errorf("hybrids page entry %d: got %+v, want %+v", offset+i, got.Hybrids[i], want)
		}
	}
	return nil
}
