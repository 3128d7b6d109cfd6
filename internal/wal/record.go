package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind distinguishes record types in the log. Only decisions exist today;
// the byte is on the wire so later kinds extend the format without
// breaking old readers.
type Kind uint8

const (
	// KindDecision is one committed license decision: the canonical
	// request key, the control threshold (regime) applied, and the FNV-1a
	// hash of the exact response body served.
	KindDecision Kind = 1

	// maxKind bounds the kinds a reader accepts; anything above is
	// treated as corruption.
	maxKind Kind = 1
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case KindDecision:
		return "decision"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Record is one entry of the decision log. Key is the serve layer's
// canonical decision-cache key (it encodes every input the decision is a
// pure function of), Regime is the control threshold in force for the
// decision in Mtops, and Hash is the 64-bit FNV-1a digest of the exact
// response body — the log stores the digest rather than the body because
// replay recomputes the decision deterministically and uses the digest to
// prove the recomputation is byte-identical to what was served.
type Record struct {
	Kind   Kind
	Key    string
	Regime float64
	Hash   uint64
}

// Framing constants. Every record is framed as
//
//	uint32 LE payload length | uint32 LE CRC-32C(payload) | payload
//
// and the payload is
//
//	1 byte kind | 8 bytes LE regime bits | 8 bytes LE hash | uvarint key length | key bytes
const (
	frameHeaderBytes = 8

	// minPayloadBytes is the shortest payload a reader accepts: kind,
	// regime, hash and a one-byte key length.
	minPayloadBytes = 1 + 8 + 8 + 1

	// maxRecordBytes bounds a single payload. A corrupted length prefix
	// must not make the reader attempt a multi-gigabyte allocation.
	maxRecordBytes = 1 << 20
)

// castagnoli is the CRC-32C table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec errors. All corruption is reported through errors — the reader
// never panics on hostile bytes, a property the fuzzers enforce.
var (
	errShortFrame  = errors.New("wal: truncated record frame")
	errFrameLength = errors.New("wal: record length out of bounds")
	errChecksum    = errors.New("wal: record checksum mismatch")
	errPayload     = errors.New("wal: malformed record payload")
)

// appendRecord renders rec's frame onto dst and returns the extended
// slice. Keys longer than the payload bound are rejected so the frame the
// writer produces is always one the reader accepts.
func appendRecord(dst []byte, rec Record) ([]byte, error) {
	if rec.Kind == 0 || rec.Kind > maxKind {
		return dst, fmt.Errorf("wal: cannot encode unknown kind %d", rec.Kind)
	}
	if len(rec.Key) > maxRecordBytes-32 {
		return dst, fmt.Errorf("wal: key of %d bytes exceeds the record bound", len(rec.Key))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadBytes(rec.Key)))
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	payloadStart := len(dst)
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Regime))
	dst = binary.LittleEndian.AppendUint64(dst, rec.Hash)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Key)))
	dst = append(dst, rec.Key...)

	sum := crc32.Checksum(dst[payloadStart:], castagnoli)
	binary.LittleEndian.PutUint32(dst[start+4:start+8], sum)
	return dst, nil
}

// payloadBytes is the payload length of a record whose key is key, so a
// frame is frameHeaderBytes + payloadBytes(key) long.
func payloadBytes(key string) int {
	var scratch [binary.MaxVarintLen64]byte
	return 1 + 8 + 8 + binary.PutUvarint(scratch[:], uint64(len(key))) + len(key)
}

// decodeRecord reads one frame from the front of b, returning the record
// and the number of bytes consumed. Corruption comes back as an error:
// errShortFrame when b ends mid-frame (a torn tail), errFrameLength and
// errChecksum and errPayload for bytes that are present but wrong.
func decodeRecord(b []byte) (Record, int, error) {
	var rec Record
	if len(b) < frameHeaderBytes {
		return rec, 0, errShortFrame
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if payloadLen < minPayloadBytes || payloadLen > maxRecordBytes {
		return rec, 0, errFrameLength
	}
	if len(b) < frameHeaderBytes+payloadLen {
		return rec, 0, errShortFrame
	}
	payload := b[frameHeaderBytes : frameHeaderBytes+payloadLen]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return rec, 0, errChecksum
	}
	kind := Kind(payload[0])
	if kind == 0 || kind > maxKind {
		return rec, 0, errPayload
	}
	rec.Kind = kind
	rec.Regime = math.Float64frombits(binary.LittleEndian.Uint64(payload[1:9]))
	rec.Hash = binary.LittleEndian.Uint64(payload[9:17])
	keyLen, n := binary.Uvarint(payload[17:])
	if n <= 0 || int(keyLen) != len(payload)-17-n {
		return rec, 0, errPayload
	}
	rec.Key = string(payload[17+n:])
	return rec, frameHeaderBytes + payloadLen, nil
}
