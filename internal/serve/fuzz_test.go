package serve

// Native fuzz target for the mapped serving path: snapshot.Map over
// mutated fixed-width files, then serve.New and the data endpoints.
// Two properties hold on every input:
//
//   - raw mutations: Map accepts nothing the strict reader (Open)
//     rejects — mapping is never a back door around validation;
//   - mutations with the v3 section checksums re-sealed, so they reach
//     the payload and index checks behind the checksums: whatever Map
//     accepts serves /v1/rel, /v1/as and /v1/hybrids without a panic.
//
// Run locally with:
//
//	go test -fuzz=FuzzMap -fuzztime=30s ./internal/serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"hybridrel/internal/asrel"
	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/snapshot"
	"hybridrel/internal/testutil"
)

// v3RecSize is the record width of each v3 section (format2.go).
var v3RecSize = [17]uint64{8, 1, 8, 1, 16, 16, 24, 8, 4, 4, 4, 1, 4, 4, 4, 4, 4}

// reseal recomputes every section checksum of a v3 artifact from its
// directory as written; out-of-range entries are left alone, and
// anything that is not v3 is returned unchanged.
func reseal(data []byte) []byte {
	b := bytes.Clone(data)
	const hdr = 8 + 17*24
	if len(b) < hdr || string(b[:4]) != "HYBS" || binary.BigEndian.Uint16(b[4:6]) != 3 {
		return b
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	for i, rec := range v3RecSize {
		e := b[8+24*i:]
		off, cnt := binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint64(e[8:])
		if cnt > 1<<27 || off > uint64(len(b)) || cnt*rec > uint64(len(b))-off {
			continue
		}
		binary.LittleEndian.PutUint32(e[16:], crc32.Checksum(b[off:off+cnt*rec], table))
	}
	return b
}

// tinyV3 encodes a miniature world's snapshot in format v3.
func tinyV3(t testing.TB) []byte {
	t.Helper()
	cfg := gen.SmallConfig()
	cfg.NumASes = 48
	cfg.NumTier1 = 3
	cfg.V6OnlyPeerings = 8
	cfg.NumRelaxers = 1
	cfg.NumNoiseLeakers = 1
	cfg.HubPeerings = 3
	cfg.NumVantages = 4
	w, err := testutil.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.EncodeV2(&buf, snapshot.Capture(core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions()))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzMap(f *testing.F) {
	v3 := tinyV3(f)
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	// A flipped hybrid-class byte: section 6 is the hybrid list, byte 10
	// of its first record the class.
	flipped := bytes.Clone(v3)
	flipped[binary.LittleEndian.Uint64(flipped[8+24*6:])+10] = 0xFF
	f.Add(flipped)
	if v2, err := snapshot.DowngradeV2(v3); err == nil {
		f.Add(v2)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		mapFile := func(b []byte) (*snapshot.Snapshot, error) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return snapshot.Map(path)
		}

		if m, err := mapFile(data); err == nil {
			if _, err := snapshot.Open(path); err != nil {
				t.Fatalf("Map accepted a file the strict reader rejects: %v", err)
			}
			m.Close()
		}

		m, err := mapFile(reseal(data))
		if err != nil {
			return
		}
		defer m.Close()
		srv := New(m)
		get := func(url string) {
			srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", url, nil))
		}
		x := m.Index()
		for i := 0; i < len(x.ASNs) && i < 8; i++ {
			get(fmt.Sprintf("/v1/as/%d", x.ASNs[i]))
		}
		pairs := []asrel.LinkKey{{Lo: 1, Hi: 2}}
		for i := 0; i < len(m.Links4) && i < 8; i++ {
			pairs = append(pairs, m.Links4[i].Key)
		}
		for i := 0; i < len(m.Hybrids) && i < 8; i++ {
			pairs = append(pairs, m.Hybrids[i].Key)
			get(fmt.Sprintf("/v1/as/%d", m.Hybrids[i].Key.Hi))
		}
		for _, k := range pairs {
			get(fmt.Sprintf("/v1/rel?a=%d&b=%d", k.Lo, k.Hi))
			get(fmt.Sprintf("/v1/rel?a=%d&b=%d", k.Hi, k.Lo))
		}
		for _, q := range []string{"", "?offset=2&limit=3", "?class=h1", "?class=h2", "?class=h3", "?class=other&offset=1"} {
			get("/v1/hybrids" + q)
		}
	})
}
