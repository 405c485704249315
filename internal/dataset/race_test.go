package dataset

// Concurrency test for the query accessors: the first query after
// ingest folds the pending link occurrences into the frozen flat index,
// and any number of goroutines may trigger that fold simultaneously,
// while Paths() builds each caller its own result without a lock.
// Mirrors core's analysis race test; run under -race in CI.

import (
	"net/netip"
	"sync"
	"testing"

	"hybridrel/internal/asrel"
)

func TestConcurrentFirstFlatAccess(t *testing.T) {
	build := func() *Dataset {
		d := New(asrel.IPv4)
		for v := asrel.ASN(100); v < 140; v++ {
			path := []asrel.ASN{v, 2, 3, asrel.ASN(200 + v%7)}
			if err := d.AddPath(path, netip.Prefix{}, nil, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	// Reference values from a sequential run.
	ref := build()
	wantLinks := ref.NumLinks()
	wantVis := ref.LinkVisibility(asrel.Key(2, 3))
	wantPaths := len(ref.Paths())

	// Fresh dataset: nothing folded yet; every accessor races on the
	// first freeze.
	d := build()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*5)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := d.NumLinks(); got != wantLinks {
				errs <- "NumLinks mismatch"
			}
			if got := d.LinkVisibility(asrel.Key(2, 3)); got != wantVis {
				errs <- "LinkVisibility mismatch"
			}
			if got := len(d.Paths()); got != wantPaths {
				errs <- "Paths length mismatch"
			}
			n := 0
			d.EachLink(func(asrel.LinkKey, int) { n++ })
			if n != wantLinks {
				errs <- "EachLink count mismatch"
			}
			if d.Flat() == nil {
				errs <- "nil Flat"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
