package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File-format constants. Segment and snapshot files share the record
// framing; they differ only in their headers and in how the reader treats
// damage (a segment tolerates a torn tail, a snapshot is all-or-nothing).
// A v2 snapshot is a v1 snapshot plus one trailing frame: the decision
// record appended last before it.
const (
	segmentMagic    = "HPCWAL1\x00"
	snapshotMagicV1 = "HPCSNAP1"
	snapshotMagicV2 = "HPCSNAP2"

	segmentHeaderBytes  = 16 // magic + uint64 LE sequence number
	snapshotHeaderBytes = 24 // magic + uint64 LE sequence + uint64 LE record count

	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"
)

// segmentName renders the on-disk name of a segment.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segmentPrefix, seq, segmentSuffix)
}

// snapshotName renders the on-disk name of a snapshot.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotSuffix)
}

// parseSeq extracts the sequence number from a segment or snapshot file
// name, returning ok=false for names that are not ours.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if digits == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// appendSegmentHeader renders a segment header onto dst.
func appendSegmentHeader(dst []byte, seq uint64) []byte {
	dst = append(dst, segmentMagic...)
	return binary.LittleEndian.AppendUint64(dst, seq)
}

// segmentScan is the outcome of reading one segment image: the decoded
// records, how many bytes from the front were intact (the safe append
// point), and the damage tallies. The reader never panics; arbitrary
// bytes produce at worst an empty scan with headerOK false — a property
// FuzzSegmentReplay enforces.
type segmentScan struct {
	headerOK bool
	seq      uint64
	records  []Record
	goodLen  int // bytes of header + intact records
	torn     int // records lost to a clean truncation at the tail
	corrupt  int // records skipped for checksum/framing damage
}

// readSegmentBytes scans one segment image. Decoding stops at the first
// damaged record: everything after it is unreachable anyway, because a
// corrupted length prefix poisons every later frame boundary. A clean
// mid-record truncation counts as torn (the expected shape of a crash);
// any other damage counts as corrupt.
func readSegmentBytes(data []byte) segmentScan {
	var s segmentScan
	if len(data) < segmentHeaderBytes || string(data[:len(segmentMagic)]) != segmentMagic {
		return s
	}
	s.headerOK = true
	s.seq = binary.LittleEndian.Uint64(data[len(segmentMagic):segmentHeaderBytes])
	off := segmentHeaderBytes
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if err == errShortFrame {
				s.torn++
			} else {
				s.corrupt++
			}
			break
		}
		s.records = append(s.records, rec)
		off += n
	}
	s.goodLen = off
	return s
}

// snapshotImage is the content of one snapshot file: the sequence it
// covers, the live records in file order, and, in a v2 image, the
// decision record appended last before the snapshot. A zero last.Kind
// marks a v1 image, which carries none.
type snapshotImage struct {
	seq     uint64
	records []Record
	last    Record
}

// encodeSnapshot renders img in one allocation, its records in the
// order given: HPCSNAP2 with the trailing last record when img carries
// one, HPCSNAP1 otherwise.
func encodeSnapshot(img *snapshotImage) ([]byte, error) {
	magic, n := snapshotMagicV1, snapshotHeaderBytes
	for i := range img.records {
		n += frameHeaderBytes + payloadBytes(img.records[i].Key)
	}
	if img.last.Kind != 0 {
		magic = snapshotMagicV2
		n += frameHeaderBytes + payloadBytes(img.last.Key)
	}
	dst := make([]byte, 0, n)
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint64(dst, img.seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(img.records)))
	var err error
	for i := range img.records {
		if dst, err = appendRecord(dst, img.records[i]); err != nil {
			return nil, err
		}
	}
	if img.last.Kind != 0 {
		return appendRecord(dst, img.last)
	}
	return dst, nil
}

// readSnapshotBytes decodes a v1 or v2 snapshot image. Snapshots are
// written atomically (temp file, fsync, rename), so unlike a segment a
// damaged snapshot is rejected whole: ok=false means the caller falls
// back to an older snapshot or a full segment replay.
func readSnapshotBytes(data []byte) (snapshotImage, bool) {
	if len(data) < snapshotHeaderBytes {
		return snapshotImage{}, false
	}
	magic := string(data[:len(snapshotMagicV1)])
	if magic != snapshotMagicV1 && magic != snapshotMagicV2 {
		return snapshotImage{}, false
	}
	// A count the image is too short to hold is damage, rejected before
	// it can size an allocation.
	count := binary.LittleEndian.Uint64(data[len(magic)+8 : snapshotHeaderBytes])
	if count > uint64(len(data)-snapshotHeaderBytes)/(frameHeaderBytes+minPayloadBytes) {
		return snapshotImage{}, false
	}
	img := snapshotImage{
		seq:     binary.LittleEndian.Uint64(data[len(magic) : len(magic)+8]),
		records: make([]Record, 0, count),
	}
	off := snapshotHeaderBytes
	for i := uint64(0); i < count; i++ {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return snapshotImage{}, false
		}
		img.records = append(img.records, rec)
		off += n
	}
	if magic == snapshotMagicV2 {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return snapshotImage{}, false
		}
		img.last = rec
		off += n
	}
	if off != len(data) {
		return snapshotImage{}, false
	}
	return img, true
}

// Recovery summarizes a warm start: the records to replay, in replay
// order (the snapshot's sorted live set first, then the segment tail in
// append order), the decision record appended last, and the damage
// accounting. Replay order is a pure function of the files on disk, so
// the same log always recovers the same state — the determinism contract
// the serve layer's warm-start tests pin byte-for-byte.
type Recovery struct {
	Records []Record

	// Last is the decision record appended last before the log was
	// opened, in log order: the tail's newest decision record, else the
	// one a v2 snapshot carries. It is the zero Record when the tail
	// holds no decision record and the snapshot is absent or v1, which
	// carries none. It is a copy, so holding it does not hold Records.
	Last Record

	SnapshotSeq      uint64 // sequence of the snapshot replayed; 0 = none
	SnapshotRecords  int    // records that came from the snapshot
	Segments         int    // segment files replayed
	TornRecords      int    // records dropped at a torn segment tail
	CorruptRecords   int    // records dropped for checksum/framing damage
	DroppedSnapshots int    // snapshot files rejected as damaged
}

// recover scans dir and rebuilds the replayable state. It returns the
// recovery, the sequence the live segment should continue at, and whether
// the highest segment is intact enough to append to after truncating its
// damage (when reuseLen >= 0, the caller reopens that segment and
// truncates it to reuseLen bytes).
func recoverDir(dir string) (rec Recovery, appendSeq uint64, reuseLen int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rec, 0, -1, err
	}
	var segSeqs, snapSeqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeq(e.Name(), segmentPrefix, segmentSuffix); ok {
			segSeqs = append(segSeqs, seq)
		}
		if seq, ok := parseSeq(e.Name(), snapshotPrefix, snapshotSuffix); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] }) // newest first

	// Newest intact snapshot wins; damaged ones are counted and skipped.
	for _, seq := range snapSeqs {
		data, rerr := os.ReadFile(filepath.Join(dir, snapshotName(seq)))
		if rerr != nil {
			rec.DroppedSnapshots++
			continue
		}
		img, ok := readSnapshotBytes(data)
		if !ok || img.seq != seq {
			rec.DroppedSnapshots++
			continue
		}
		rec.SnapshotSeq = seq
		rec.SnapshotRecords = len(img.records)
		rec.Records = img.records
		rec.Last = img.last
		break
	}

	// Replay every segment the snapshot does not already cover, oldest
	// first. The snapshot was written immediately after rotating to the
	// segment whose sequence it carries, so segments below that sequence
	// hold only compacted history.
	appendSeq = 1
	if rec.SnapshotSeq > appendSeq {
		appendSeq = rec.SnapshotSeq
	}
	reuseLen = -1
	for _, seq := range segSeqs {
		if seq < rec.SnapshotSeq {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if rerr != nil {
			return rec, 0, -1, rerr
		}
		scan := readSegmentBytes(data)
		rec.Segments++
		rec.TornRecords += scan.torn
		rec.CorruptRecords += scan.corrupt
		if !scan.headerOK || scan.seq != seq {
			// The segment's own header is gone: nothing in it is
			// trustworthy. Skip it whole and make sure we never append
			// to it.
			rec.CorruptRecords++
			if seq >= appendSeq {
				appendSeq = seq + 1
				reuseLen = -1
			}
			continue
		}
		rec.Records = append(rec.Records, scan.records...)
		if seq >= appendSeq {
			// Continue appending to this segment, truncated back to its
			// last intact record if the tail was damaged. The dropped
			// bytes were never durably acknowledged — an acked record is
			// one Append returned for, and Append returns only after a
			// complete frame is written — so truncation loses nothing the
			// log promised to keep.
			appendSeq = seq
			reuseLen = int64(scan.goodLen)
		}
	}
	for i := len(rec.Records) - 1; i >= rec.SnapshotRecords; i-- {
		if rec.Records[i].Kind == KindDecision {
			rec.Last = rec.Records[i]
			break
		}
	}
	return rec, appendSeq, reuseLen, nil
}
