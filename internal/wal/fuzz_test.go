package wal

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzWALRecord drives the record codec with arbitrary bytes. The
// invariants: decodeRecord never panics, never reports consuming more
// bytes than it was given, and any frame it accepts re-encodes to the
// exact same bytes (the codec is bijective on valid frames).
func FuzzWALRecord(f *testing.F) {
	seed := func(rec Record) {
		b, err := appendRecord(nil, rec)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(b)
	}
	seed(Record{Kind: KindDecision, Key: "cray\x1f12.5\x1fRU\x1fmilitary\x1f2000", Regime: 2000, Hash: 0xdeadbeef})
	seed(Record{Kind: KindDecision, Key: "", Regime: 0, Hash: 0})
	seed(Record{Kind: KindDecision, Key: "k", Regime: -1.5, Hash: ^uint64(0)})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if n < 0 || n > len(data) {
			t.Fatalf("decodeRecord consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			return
		}
		reenc, eerr := appendRecord(nil, rec)
		if eerr != nil {
			t.Fatalf("decoded record failed to re-encode: %v", eerr)
		}
		if !bytes.Equal(reenc, data[:n]) {
			t.Fatalf("codec not bijective:\n in  %x\n out %x", data[:n], reenc)
		}
		rec2, n2, derr := decodeRecord(reenc)
		if derr != nil || n2 != n || rec2 != rec {
			t.Fatalf("re-decode mismatch: %+v %d %v", rec2, n2, derr)
		}
	})
}

// FuzzSegmentReplay drives the segment and snapshot readers with
// arbitrary file images. The invariants: neither reader panics, a
// segment scan's good length never exceeds the input, and scanning is a
// pure function — the same bytes always produce the same records and
// damage tallies.
func FuzzSegmentReplay(f *testing.F) {
	valid := appendSegmentHeader(nil, 1)
	var err error
	for i := 1; i <= 3; i++ {
		if valid, err = appendRecord(valid, mkFuzzRecord(i)); err != nil {
			f.Fatalf("seed: %v", err)
		}
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[segmentHeaderBytes+10] ^= 0x40
	f.Add(flipped) // checksum damage
	f.Add([]byte(segmentMagic))
	f.Add([]byte(snapshotMagicV1))
	snap := append([]byte(snapshotMagicV1), make([]byte, 16)...)
	f.Add(snap)

	f.Fuzz(func(t *testing.T, data []byte) {
		scan := readSegmentBytes(data)
		if scan.goodLen > len(data) {
			t.Fatalf("goodLen %d exceeds input %d", scan.goodLen, len(data))
		}
		if !scan.headerOK && (len(scan.records) != 0 || scan.goodLen != 0) {
			t.Fatalf("records accepted from a headerless segment: %+v", scan)
		}
		again := readSegmentBytes(data)
		if scan.seq != again.seq || scan.torn != again.torn || scan.corrupt != again.corrupt ||
			len(scan.records) != len(again.records) || scan.goodLen != again.goodLen {
			t.Fatalf("segment scan not deterministic: %+v vs %+v", scan, again)
		}
		for i := range scan.records {
			if scan.records[i] != again.records[i] {
				t.Fatalf("record %d differs across scans", i)
			}
		}

		img, ok := readSnapshotBytes(data)
		img2, ok2 := readSnapshotBytes(data)
		if ok != ok2 || !sameImage(img, img2) {
			t.Fatalf("snapshot read not deterministic")
		}
	})
}

// FuzzSnapshotReplay drives the snapshot reader with arbitrary file
// images, seeded with the v1 and v2 images the writer produces. The
// invariants: readSnapshotBytes never panics, and it is exact in both
// directions — any image it accepts is the one encodeSnapshot writes for
// what it decoded, byte for byte, in the same version and in a buffer of
// exactly its size, and that image reads back to the same snapshot.
func FuzzSnapshotReplay(f *testing.F) {
	for _, img := range fuzzSnapshots() {
		b, err := encodeSnapshot(&img)
		if err != nil {
			f.Fatalf("seed: %v", err)
		}
		f.Add(b)
		f.Add(b[:len(b)-3]) // torn trailer
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		img, ok := readSnapshotBytes(data)
		if !ok {
			if !sameImage(img, snapshotImage{}) {
				t.Fatalf("rejected image returned content: %+v", img)
			}
			return
		}
		again, err := encodeSnapshot(&img)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if cap(again) != len(again) {
			t.Fatalf("a %d-byte image was encoded into a %d-byte buffer", len(again), cap(again))
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("snapshot codec not bijective:\n in  %x\n out %x", data, again)
		}
		back, ok := readSnapshotBytes(again)
		if !ok || !sameImage(back, img) {
			t.Fatalf("re-read snapshot %+v (ok %v), want %+v", back, ok, img)
		}
	})
}

// sameImage reports whether two snapshot images hold the same
// sequence, records and last record, comparing regimes by their bits so
// that a NaN read back equals itself.
func sameImage(a, b snapshotImage) bool {
	same := func(x, y Record) bool {
		return x.Kind == y.Kind && x.Key == y.Key && x.Hash == y.Hash &&
			math.Float64bits(x.Regime) == math.Float64bits(y.Regime)
	}
	return a.seq == b.seq && same(a.last, b.last) && slices.EqualFunc(a.records, b.records, same)
}

// fuzzSnapshots are the seed images of FuzzSnapshotReplay: a v1 image
// and a v2 image whose last record repeats neither of its keys.
func fuzzSnapshots() []snapshotImage {
	set := []Record{mkFuzzRecord(1), mkFuzzRecord(2)}
	return []snapshotImage{
		{seq: 3, records: set},
		{seq: 4, records: set, last: mkFuzzRecord(5)},
	}
}

// mkFuzzRecord builds fuzz-seed records without testing.T plumbing.
func mkFuzzRecord(i int) Record {
	return Record{
		Kind:   KindDecision,
		Key:    string(rune('a'+i)) + "\x1f1.0\x1fUS\x1fcivil\x1f2000",
		Regime: float64(i) * 1000,
		Hash:   uint64(i) * 7,
	}
}
