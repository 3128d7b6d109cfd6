package serve

import (
	"context"
	"hash/fnv"
	"log/slog"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/parpool"
	"repro/internal/units"
	"repro/internal/wal"
)

// The WAL integration: every committed (cached) license decision is
// written through to the mounted decision log, and on boot the log's
// recovery stream is replayed into the decision LRU so a restarted
// daemon's first responses are byte-identical to its pre-restart ones.
//
// The log stores no response bodies — only the canonical decision key
// (which encodes every input the decision is a pure function of), the
// regime applied, and the FNV-1a-64 digest of the exact body served.
// Replay recomputes the decisions the cache will hold from their keys
// and admits each only when the recomputed body's digest matches the
// logged one: a decision that cannot be reproduced bit-for-bit (a
// corrupted key, a code change that altered rendering) is counted and
// logged, never served. Degraded (cache-bypassed) responses are never
// logged, because they are never committed to the cache.

// bodyHash digests a rendered response body the way the WAL records it.
func bodyHash(body []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return h.Sum64()
}

// parseDecisionKey inverts appendDecisionKey: it splits a canonical
// cache key back into fill arguments without allocating, since the
// string fields are substrings of key. A key without exactly five
// fields, or whose CTP or threshold field is not a float, returns false;
// the caller counts it as unreplayable. resolveLicenseArgs rejects a
// destination or end use holding the separator byte, so every key the
// server builds has exactly five fields and parses back to its inputs.
func parseDecisionKey(key string, a *fillArgs) bool {
	var f [5]string
	rest := key
	for i := range 4 {
		j := strings.IndexByte(rest, keySep)
		if j < 0 {
			return false
		}
		f[i], rest = rest[:j], rest[j+1:]
	}
	if strings.IndexByte(rest, keySep) >= 0 {
		return false
	}
	f[4] = rest
	rated, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return false
	}
	th, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		return false
	}
	a.sysName = f[0]
	a.rated = units.Mtops(rated)
	a.dest = f[2]
	a.endUse = f[3]
	a.th = units.Mtops(th)
	return true
}

// replaySlot is one key's newest decision record in the warm-start
// window, with the outcome of recomputing it: the verified entry, or the
// reason the record was skipped.
type replaySlot struct {
	rec    *wal.Record
	d      *cachedDecision
	reason string
}

// warmStart replays the mounted log's recovery stream into the decision
// cache, recomputing only what a full log-order replay would leave
// cached. It walks the records newest-first and keeps each key's newest
// decision record until the window holds as many keys as the cache
// does; a full replay would overwrite the older records and evict the
// older keys. The window is recomputed and hash-checked on a transient
// pool of Config.BatchWorkers workers, each writing only its own slots.
// The pool is closed, which joins every worker, before the verified
// entries are Put oldest-first on this goroutine, so the cache ends
// with the keys, bodies and recency order of a full replay.
//
// A key is judged by its newest record alone: when that record fails to
// verify, the key is counted as a mismatch and left out, even if an
// older record of it would verify. The decision record appended last
// (Recovery.Last: the tail's newest, else the one a v2 snapshot carries)
// seeds the regime detector, so the first commit under another
// threshold after a restart is a transition and one under the same
// threshold is not. A v1 snapshot carries none; over an empty tail the
// seed is then the newest record, its last key in sort order. Returns
// the number of admitted entries.
func (s *Server) warmStart() int {
	rec := s.wal.Recovery()
	if rec.Last.Kind == wal.KindDecision {
		s.lastRegime, s.haveRegime = rec.Last.Regime, true
	}
	capacity := s.decisions.capacity
	window := make([]replaySlot, 0, min(capacity, len(rec.Records)))
	seen := make(map[string]struct{}, cap(window))
	for i := len(rec.Records) - 1; i >= 0 && len(window) < capacity; i-- {
		r := &rec.Records[i]
		if r.Kind != wal.KindDecision {
			continue
		}
		if !s.haveRegime {
			s.lastRegime, s.haveRegime = r.Regime, true
		}
		if _, dup := seen[r.Key]; dup {
			continue
		}
		seen[r.Key] = struct{}{}
		window = append(window, replaySlot{rec: r})
	}
	// As on the batch path, a window under batchParallelMin keys costs
	// less to verify inline than to hand to a pool; so does one worker.
	var p *parpool.Pool
	if s.cfg.BatchWorkers > 1 && len(window) >= batchParallelMin {
		p = parpool.New(s.cfg.BatchWorkers)
	}
	p.Run(len(window), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			verifyReplay(&window[i])
		}
	})
	p.Close()

	admitted := 0
	for i := len(window) - 1; i >= 0; i-- {
		sl := &window[i]
		if sl.d == nil {
			s.walMismatches.Add(1)
			s.logWALSkip(sl.rec.Key, sl.reason)
			continue
		}
		s.decisions.Put(sl.rec.Key, sl.d)
		admitted++
	}
	s.walReplayed.Store(uint64(admitted))
	if s.logger != nil {
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "wal warm start",
			slog.Int("replayed", admitted),
			slog.Int("records", len(rec.Records)),
			slog.Uint64("mismatches", s.walMismatches.Load()),
			slog.Int("torn", rec.TornRecords),
			slog.Int("corrupt", rec.CorruptRecords),
			slog.Int("droppedSnapshots", rec.DroppedSnapshots))
	}
	return admitted
}

// verifyReplay recomputes one logged decision from its key and keeps it
// only if the recomputed body hashes to the logged digest.
func verifyReplay(sl *replaySlot) {
	var a fillArgs
	if !parseDecisionKey(sl.rec.Key, &a) {
		sl.reason = "unparseable key"
		return
	}
	resp, herr := buildDecision(&a)
	if herr != nil {
		sl.reason = "decision no longer evaluates"
		return
	}
	d, err := encodeCached(resp)
	if err != nil {
		sl.reason = "encode failed"
		return
	}
	if d.hash != sl.rec.Hash {
		sl.reason = "body hash mismatch"
		return
	}
	sl.d = d
}

// logWALSkip records one unreplayable log record.
func (s *Server) logWALSkip(key, reason string) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(context.Background(), slog.LevelWarn, "wal replay skip",
		slog.String("reason", reason), slog.String("key", key))
}

// walCommit logs one fresh decision and then caches it: Append and Put
// both run under walMu, so no answer for the key, a cache hit or a
// coalesced one, leaves before its record is appended, and a compaction
// never collects the live set between a key's append and its Put.
// Append failures are counted and logged, never surfaced to the request:
// the decision is still cached and answered, and the audit trail
// degrades explicitly (wal_append_errors_total) rather than taking the
// service down with it. The request's flight-recorder record gets the
// commit outcome. Snapshot compaction is triggered when enough commits
// have accumulated.
//
// This is the one regime-transition detector. A committed decision under
// a threshold other than the previous committed decision's publishes a
// regime event on the watch stream and records the transition on the
// request's capture as a breaker note and an anomaly, so the capture
// that crossed a control boundary is pinned with its surrounding
// context. walMu is held across Append, which serializes on the log's
// own mutex anyway, so the comparison and the events follow log order.
func (s *Server) walCommit(ctx context.Context, skey string, a *fillArgs, d *cachedDecision) {
	rec := obs.RecordFrom(ctx)
	th := float64(a.th)
	s.walMu.Lock()
	err := s.wal.Append(wal.Record{
		Kind:   wal.KindDecision,
		Key:    skey,
		Regime: th,
		Hash:   d.hash,
	})
	s.decisions.Put(skey, d)
	prev, transition := s.lastRegime, false
	if err == nil {
		transition = s.haveRegime && th != prev
		s.lastRegime, s.haveRegime = th, true
		if transition {
			s.hub.publish(WatchEvent{Kind: EventRegime, Key: skey, Mtops: th, PrevMtops: prev})
		}
	}
	s.walMu.Unlock()
	if err != nil {
		s.walAppendErrs.Add(1)
		rec.SetWAL("append-error")
		if s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelError, "wal append failed",
				slog.String("key", skey), slog.Any("err", err))
		}
		return
	}
	rec.SetWAL("committed")
	if transition {
		rec.SetBreaker("regime " + canonicalFloat(prev) + "->" + canonicalFloat(th))
		rec.AddAnomaly("regime-transition")
	}
	if every := s.cfg.SnapshotEvery; every > 0 {
		if n := s.walSinceSnap.Add(1); int(n) >= every {
			s.maybeSnapshot()
		}
	}
}

// maybeSnapshot runs one snapshot compaction if no other request is
// already running one. The live set is collected from the decision LRU
// in recency order, each record's regime read from its key's threshold
// field; the log sorts the set by key in place before writing, so the
// snapshot bytes are independent of both recency and map order.
//
// walMu is held from the collection through the snapshot write. The
// snapshot replaces every older segment, so a decision appended after
// the collection but before the rotation would otherwise be in neither
// the snapshot nor a surviving segment: answered, yet lost. A commit
// therefore waits for the LRU walk as well as for the write. The lock
// order is walMu, then the LRU's lock, then the log's.
func (s *Server) maybeSnapshot() {
	if !s.walSnapBusy.CompareAndSwap(false, true) {
		return
	}
	defer s.walSnapBusy.Store(false)
	s.walSinceSnap.Store(0)

	s.walMu.Lock()
	defer s.walMu.Unlock()
	records := make([]wal.Record, 0, s.decisions.Len())
	s.decisions.forEach(func(key string, d *cachedDecision) {
		th, ok := keyThreshold(key)
		if !ok {
			return
		}
		records = append(records, wal.Record{
			Kind:   wal.KindDecision,
			Key:    key,
			Regime: th,
			Hash:   d.hash,
		})
	})
	if err := s.wal.Snapshot(records); err != nil {
		s.walAppendErrs.Add(1)
		if s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelError, "wal snapshot failed",
				slog.Any("err", err))
		}
	}
}

// keyThreshold reads the threshold, the last field of a canonical
// decision key, without splitting the fields before it.
func keyThreshold(key string) (float64, bool) {
	i := strings.LastIndexByte(key, keySep)
	if i < 0 {
		return 0, false
	}
	th, err := strconv.ParseFloat(key[i+1:], 64)
	return th, err == nil
}

// walHealth summarizes the log for /v1/healthz.
func (s *Server) walHealth() *WALHealth {
	if s.wal == nil {
		return nil
	}
	st := s.wal.Stats()
	rec := s.wal.Recovery()
	return &WALHealth{
		Appends:       st.Appends,
		Fsyncs:        st.Fsyncs,
		Rotations:     st.Rotations,
		Compactions:   st.Compactions,
		Segment:       st.Segment,
		Replayed:      s.walReplayed.Load(),
		Mismatches:    s.walMismatches.Load(),
		AppendErrors:  s.walAppendErrs.Load(),
		TornRecords:   rec.TornRecords,
		CorruptRecs:   rec.CorruptRecords,
		Watchers:      s.hub.subscribers(),
		DroppedEvents: s.hub.dropped(),
	}
}
