package snapshot

// Native fuzz target for snapshot.Read — the third untrusted decoder,
// covering both wire formats. Beyond "never panic", the target enforces
// two differential oracles: whatever Read accepts must re-encode and
// re-decode to a stable form (Encode(Read(x)) is a fixed point), and
// the v1↔fixed-width cross-version oracle — re-encoding the accepted
// snapshot with EncodeV2 (format v3) and decoding that must yield the
// same canonical v1 bytes. Version-2 and version-3 seeds exercise the
// fixed-width path: valid artifacts, header/offset-directory
// corruption, misaligned sections, truncation, and a flipped
// hybrid-class byte with and without re-sealed checksums. The committed seed corpus under testdata/fuzz/FuzzRead is
// generated from a tiny testutil world (regenerate with
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus).
//
// Run locally with:
//
//	go test -fuzz=FuzzRead -fuzztime=30s ./internal/snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hybridrel/internal/core"
	"hybridrel/internal/gen"
	"hybridrel/internal/testutil"
)

// tinySnapshots encodes a miniature world's snapshot raw, compressed,
// and in formats v2 and v3 for fuzz seeds.
func tinySnapshots(t testing.TB) (raw, gz, v2, v3 []byte) {
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
	s := Capture(core.Analyze(w.D4, w.D6, w.Dict, core.DefaultOptions()))
	var rawBuf, gzBuf bytes.Buffer
	if err := Encode(&rawBuf, s, false); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&gzBuf, s, true); err != nil {
		t.Fatal(err)
	}
	v3 = encodeV2Bytes(t, s)
	v2, err = DowngradeV2(v3)
	if err != nil {
		t.Fatal(err)
	}
	return rawBuf.Bytes(), gzBuf.Bytes(), v2, v3
}

func FuzzRead(f *testing.F) {
	raw, gz, v2, v3 := tinySnapshots(f)
	f.Add(raw)
	f.Add(gz)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:7])
	f.Add([]byte("HYBS\x00\x01\x00"))
	f.Add([]byte("not a snapshot at all"))
	// An empty-but-valid payload: zero counts for every section.
	empty := &Snapshot{}
	var emptyBuf bytes.Buffer
	if err := Encode(&emptyBuf, empty, false); err != nil {
		f.Fatal(err)
	}
	f.Add(emptyBuf.Bytes())
	// Version-2 seeds: a valid artifact, truncations landing inside the
	// directory and inside a section, a corrupted directory offset, a
	// misaligned section offset, and an empty-but-valid v2 artifact.
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add(v2[:v2HeaderSize-9])
	corruptDir := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(corruptDir[8+16*secHybrids:], uint64(len(v2)*2))
	f.Add(corruptDir)
	misaligned := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(misaligned[8:], uint64(v2HeaderSize+1))
	f.Add(misaligned)
	f.Add(v2Bytes(f, empty))
	// Version-3 seeds: a valid artifact, a truncation, an empty one, and
	// a flipped hybrid-class byte — caught by the checksum as written,
	// and by the payload checks once the checksums are re-sealed.
	f.Add(v3)
	f.Add(v3[:len(v3)/2])
	f.Add(encodeV2Bytes(f, empty))
	if flipped, ok := flipHybridClass(v3); ok {
		f.Add(flipped)
		f.Add(reseal(flipped))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			// Malformed input must produce a descriptive error, never a
			// panic (the call above) and never a partial snapshot.
			if err.Error() == "" {
				t.Fatal("Read returned an empty error")
			}
			return
		}
		if s == nil || s.Rel4 == nil || s.Rel6 == nil {
			t.Fatal("accepted snapshot has nil tables")
		}

		// Differential oracle: an accepted snapshot re-encodes, and the
		// re-encoded bytes decode to a snapshot that re-encodes to the
		// same bytes — the codec is a fixed point on its own output.
		var first bytes.Buffer
		if err := Encode(&first, s, false); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		s2, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot failed: %v", err)
		}
		var second bytes.Buffer
		if err := Encode(&second, s2, false); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("codec is not a fixed point: %d vs %d bytes", first.Len(), second.Len())
		}

		// Cross-version oracle: re-encoding the accepted snapshot with
		// the fixed-width writer and strictly decoding that must
		// round-trip back to the same canonical v1 bytes, whichever
		// version the input was.
		var fixed bytes.Buffer
		if err := EncodeV2(&fixed, s); err != nil {
			t.Fatalf("fixed-width re-encode of accepted snapshot failed: %v", err)
		}
		s3, err := Read(bytes.NewReader(fixed.Bytes()))
		if err != nil {
			t.Fatalf("decode of fixed-width re-encoded snapshot failed: %v", err)
		}
		var third bytes.Buffer
		if err := Encode(&third, s3, false); err != nil {
			t.Fatalf("v1 re-encode after fixed-width round trip failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), third.Bytes()) {
			t.Fatalf("v1↔fixed-width cross-version oracle violated: %d vs %d bytes", first.Len(), third.Len())
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus. Gated
// behind WRITE_FUZZ_CORPUS so normal runs never touch the files.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	raw, gz, v2, v3 := tinySnapshots(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seed-raw", raw)
	write("seed-gzip", gz)
	write("seed-raw-truncated", raw[:len(raw)/3])
	write("seed-v2", v2)
	write("seed-v2-truncated", v2[:len(v2)/3])
	corrupt := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(corrupt[8+16*secLinks4:], uint64(v2HeaderSize+4))
	write("seed-v2-misaligned", corrupt)
	write("seed-v3", v3)
	write("seed-v3-truncated", v3[:len(v3)/3])
	if flipped, ok := flipHybridClass(v3); ok {
		write("seed-v3-class-flipped", flipped)
		write("seed-v3-class-flipped-resealed", reseal(flipped))
	}
}
