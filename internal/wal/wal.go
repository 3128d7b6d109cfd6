// Package wal is hpcwal: the durable decision audit log behind
// hpcexportd. It records every committed license decision — the canonical
// request key, the control regime applied, and the hash of the exact
// response body — in an append-only, CRC-checksummed, length-prefixed,
// segment-rotated log, with snapshot compaction and deterministic
// warm-start replay.
//
// The design leans on the repository's determinism contract instead of
// fighting it: the log never stores response bodies, only the inputs
// (inside the canonical key) and a digest of the output. Replay
// recomputes each decision — a pure function of its key — and the digest
// proves the recomputation is byte-identical to what was served before
// the restart. Same log, same cache, byte for byte.
//
// Durability model: Append returns only after the record's complete
// frame reaches the operating system (and, under FsyncAlways, the disk).
// Recovery truncates at most a torn tail — bytes no Append ever
// acknowledged — and surfaces every checksum mismatch as a counted,
// logged skip, never a panic and never a silent loss.
//
// The log only logs: it appends, rotates, snapshots, recovers and
// closes. What a commit means (a regime transition, an event on the
// watch stream) is decided by the serve layer that commits it.
//
// The recovery set is held only until it is superseded. Open keeps the
// records it recovered for warm start; the first Snapshot, once the new
// snapshot is durable and the segments it replaces are removed, drops
// them, because they then describe files that no longer exist. The
// recovery's tallies stay for the life of the log.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultSegmentBytes is the segment size Open applies when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// FsyncPolicy says when Append pushes bytes to stable storage.
type FsyncPolicy struct {
	// Every is the number of appends between fsyncs: 1 syncs every
	// append (the durable default), N > 1 amortizes one sync over N
	// appends, and 0 never syncs on append (segment close and snapshot
	// writes still sync, so completed segments are always stable).
	Every int
}

// Canonical policies.
var (
	FsyncAlways = FsyncPolicy{Every: 1}
	FsyncNever  = FsyncPolicy{Every: 0}
)

// ParseFsyncPolicy reads a policy flag: "always", "never", or "every=N".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch {
	case s == "" || s == "always":
		return FsyncAlways, nil
	case s == "never":
		return FsyncNever, nil
	case strings.HasPrefix(s, "every="):
		n, err := strconv.Atoi(s[len("every="):])
		if err != nil || n < 1 {
			return FsyncPolicy{}, fmt.Errorf("wal: bad fsync interval %q (want every=N, N >= 1)", s)
		}
		return FsyncPolicy{Every: n}, nil
	default:
		return FsyncPolicy{}, fmt.Errorf("wal: unknown fsync policy %q (want always, never, or every=N)", s)
	}
}

// String renders the policy in ParseFsyncPolicy's notation.
func (p FsyncPolicy) String() string {
	switch p.Every {
	case 0:
		return "never"
	case 1:
		return "always"
	default:
		return fmt.Sprintf("every=%d", p.Every)
	}
}

// Options configures Open. Dir is required; zero values elsewhere take
// the documented defaults.
type Options struct {
	Dir          string
	SegmentBytes int64 // rotate once a segment exceeds this; 0 = DefaultSegmentBytes

	// Fsync is the append durability barrier. The zero value is
	// FsyncNever; FsyncAlways comes from setting it, or from
	// ParseFsyncPolicy(""), the daemon's flag path.
	Fsync FsyncPolicy

	// opener replaces the segment-file opener; nil means the real
	// filesystem. Unexported: only this package's crash/corruption test
	// harness injects failpoint writers.
	opener func(path string, reuseLen int64) (segmentFile, error)
}

// segmentFile is what the log needs from an open segment: ordered
// writes, a durability barrier, and a close.
type segmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// openSegmentFile is the production opener: append-only, created if
// missing, truncated to reuseLen first when reuseLen >= 0 (discarding a
// damaged tail before reuse).
func openSegmentFile(path string, reuseLen int64) (segmentFile, error) {
	if reuseLen >= 0 {
		if err := os.Truncate(path, reuseLen); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Stats is the log's cumulative operation accounting, safe to read
// concurrently with appends (the obs layer reads it at scrape time).
type Stats struct {
	Appends     uint64 `json:"appends"`
	Fsyncs      uint64 `json:"fsyncs"`
	Rotations   uint64 `json:"rotations"`
	Compactions uint64 `json:"compactions"`
	Segment     uint64 `json:"segment"` // live segment sequence number
}

// Log is the open decision log. Create one with Open; it is safe for
// concurrent use. Appends serialize on an internal mutex — they sit on
// the cache-fill (cold) path of the serve layer, never the warm path.
type Log struct {
	dir     string
	segSize int64
	policy  FsyncPolicy
	opener  func(path string, reuseLen int64) (segmentFile, error)

	// recovery is what Open recovered. It is replaced, never mutated:
	// the first compaction stores a copy without Records and Last, so a
	// reader holding the old value keeps a consistent one.
	recovery atomic.Pointer[Recovery]

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	rotations   atomic.Uint64
	compactions atomic.Uint64
	segSeq      atomic.Uint64

	mu        sync.Mutex
	f         segmentFile
	size      int64
	sinceSync int
	buf       []byte
	closed    bool
	last      Record // the decision record appended last; the next snapshot carries it
}

// Open opens (or creates) the log in opts.Dir, recovering any existing
// state first. The recovery — the deterministic replay set plus the
// damage tallies — is available from Recovery; its records are held
// until the first Snapshot supersedes them, its tallies until the log is
// closed. Appends continue in the highest intact segment, truncated past
// any torn tail.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < segmentHeaderBytes+frameHeaderBytes {
		return nil, fmt.Errorf("wal: SegmentBytes %d is below one header and frame", opts.SegmentBytes)
	}
	if opts.opener == nil {
		opts.opener = openSegmentFile
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	rec, appendSeq, reuseLen, err := recoverDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:     opts.Dir,
		segSize: opts.SegmentBytes,
		policy:  opts.Fsync,
		opener:  opts.opener,
		last:    rec.Last,
	}
	l.recovery.Store(&rec)
	if err := l.openSegment(appendSeq, reuseLen); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment opens the live segment, writing a header when the file is
// new (reuseLen <= header length means we are not resuming real
// records). Callers hold l.mu or have exclusive access.
func (l *Log) openSegment(seq uint64, reuseLen int64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := l.opener(path, reuseLen)
	if err != nil {
		return err
	}
	l.f = f
	l.size = reuseLen
	if reuseLen < segmentHeaderBytes {
		hdr := appendSegmentHeader(l.buf[:0], seq)
		if _, err := f.Write(hdr); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
		l.fsyncs.Add(1)
		l.size = segmentHeaderBytes
	}
	l.segSeq.Store(seq)
	l.sinceSync = 0
	return nil
}

// Recovery returns the warm-start replay set computed at Open. The
// returned value is shared and must be treated as read-only; it is never
// modified, so it is safe to read during a concurrent compaction. After
// the first Snapshot, Recovery returns the same tallies with Records nil
// and Last zero.
func (l *Log) Recovery() *Recovery { return l.recovery.Load() }

// Stats returns the cumulative operation counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Rotations:   l.rotations.Load(),
		Compactions: l.compactions.Load(),
		Segment:     l.segSeq.Load(),
	}
}

// Append commits one record. It returns only after the record's complete
// frame is written (and synced, per the fsync policy): a nil return is
// the durability acknowledgment the recovery contract protects.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	frame, err := appendRecord(l.buf[:0], rec)
	l.buf = frame[:0]
	if err != nil {
		return err
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.sinceSync++
	if l.policy.Every > 0 && l.sinceSync >= l.policy.Every {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.fsyncs.Add(1)
		l.sinceSync = 0
	}
	l.appends.Add(1)
	if rec.Kind == KindDecision {
		l.last = rec
	}
	if l.size >= l.segSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Rotate closes the live segment and starts the next one. Appends rotate
// automatically at the segment size bound; explicit rotation exists for
// the compaction path and for tests.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: rotate on closed log")
	}
	return l.rotateLocked()
}

// rotateLocked seals the live segment (sync + close) and opens the next.
// Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	l.fsyncs.Add(1)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	next := l.segSeq.Load() + 1
	if err := l.openSegment(next, -1); err != nil {
		return err
	}
	l.rotations.Add(1)
	return nil
}

// Snapshot writes the given live records as a compacted snapshot and
// truncates the history it covers: the log rotates to a fresh segment,
// writes the snapshot atomically (temp file, fsync, rename), then
// removes every older segment and snapshot. Snapshot sorts records by
// key in place before writing, so the snapshot — like everything else in
// the replay path — is a deterministic function of its inputs, not of
// map order. The snapshot also carries the decision record appended last
// before it (HPCSNAP2), so a restart over an empty tail knows the last
// commit; a log that has none to carry writes HPCSNAP1. Once the older
// files are gone, the recovery's Records and Last are released.
func (l *Log) Snapshot(records []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: snapshot on closed log")
	}
	if err := l.rotateLocked(); err != nil {
		return err
	}
	slices.SortFunc(records, func(a, b Record) int { return strings.Compare(a.Key, b.Key) })
	img := snapshotImage{seq: l.segSeq.Load(), records: records, last: l.last}
	buf, err := encodeSnapshot(&img)
	if err != nil {
		return err
	}

	tmp := filepath.Join(l.dir, snapshotName(img.seq)+".tmp")
	final := filepath.Join(l.dir, snapshotName(img.seq))
	if err := writeFileSynced(tmp, buf); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("wal: snapshot dir sync: %w", err)
	}
	l.fsyncs.Add(2) // snapshot file + directory

	// Old history is now redundant: every pre-rotation record is either
	// in the snapshot (live) or superseded. Removal failures are
	// returned, but the snapshot itself is already durable — a crash
	// here leaves extra segments whose replay is idempotent.
	if err := l.removeBelow(img.seq); err != nil {
		return err
	}
	l.compactions.Add(1)
	if rec := l.recovery.Load(); rec.Records != nil || rec.Last.Kind != 0 {
		released := *rec
		released.Records, released.Last = nil, Record{}
		l.recovery.Store(&released)
	}
	return nil
}

// removeBelow deletes segments and snapshots with sequence numbers below
// seq. Callers hold l.mu.
func (l *Log) removeBelow(seq uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		old := false
		if s, ok := parseSeq(name, segmentPrefix, segmentSuffix); ok && s < seq {
			old = true
		}
		if s, ok := parseSeq(name, snapshotPrefix, snapshotSuffix); ok && s < seq {
			old = true
		}
		if old {
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return err
			}
		}
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	return nil
}

// Close seals the live segment; further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close()
		return err
	}
	l.fsyncs.Add(1)
	return l.f.Close()
}

// writeFileSynced writes data to path and fsyncs it before closing.
func writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}
