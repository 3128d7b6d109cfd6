package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// newWALServer builds a test server over a decision log in dir.
func newWALServer(t testing.TB, dir string, mutate func(*Config)) (*Server, *wal.Log) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	cfg := Config{Clock: testClock, WAL: l}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		_ = l.Close()
		t.Fatalf("New: %v", err)
	}
	return s, l
}

// walTestTargets are distinct license queries spanning two regimes.
var walTestTargets = []string{
	"/v1/license?ctp=21125&dest=india&endUse=modeling",
	"/v1/license?ctp=1500&dest=poland&endUse=weather",
	"/v1/license?ctp=21125&dest=india&endUse=modeling&threshold=7000",
	"/v1/license?ctp=500&dest=france",
	"/v1/license?system=Cray+C916&dest=india",
}

func TestWALRestartByteIdentity(t *testing.T) {
	dir := t.TempDir()
	s1, l1 := newWALServer(t, dir, nil)

	before := make(map[string]string, len(walTestTargets))
	for _, target := range walTestTargets {
		rec := do(t, s1.Handler(), "GET", target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Cache"); got != "miss" {
			t.Fatalf("%s first ask: X-Cache=%q, want miss", target, got)
		}
		before[target] = rec.Body.String()
	}
	if err := l1.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	// Restart: a new log over the same directory, a new server over it.
	// The first response to every request must come from the replayed
	// cache (X-Cache: hit) and be byte-identical to the pre-restart one.
	s2, l2 := newWALServer(t, dir, nil)
	defer func() { _ = l2.Close() }()
	if got := s2.walReplayed.Load(); got != uint64(len(walTestTargets)) {
		t.Fatalf("replayed %d decisions, want %d (mismatches=%d)",
			got, len(walTestTargets), s2.walMismatches.Load())
	}
	for _, target := range walTestTargets {
		rec := do(t, s2.Handler(), "GET", target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s after restart: %d", target, rec.Code)
		}
		if got := rec.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("%s after restart: X-Cache=%q, want hit (warm start missed)", target, got)
		}
		if rec.Body.String() != before[target] {
			t.Fatalf("%s after restart: body diverged\nbefore %q\nafter  %q",
				target, before[target], rec.Body.String())
		}
	}
	if s2.walMismatches.Load() != 0 {
		t.Fatalf("replay mismatches = %d, want 0", s2.walMismatches.Load())
	}
}

// warmTarget is the i-th distinct license query of the warm-start tests,
// spread over four destinations and two regimes. The CTP falls as i
// rises, so a snapshot, which sorts its records by key, lists the keys
// of i from 36 to 99 newest-requested first.
func warmTarget(i int) string {
	dests := []string{"india", "poland", "france", "china"}
	target := fmt.Sprintf("/v1/license?ctp=%d&dest=%s&endUse=warm%d", 5000-37*i, dests[i%len(dests)], i)
	if i%3 == 0 {
		target += "&threshold=7000"
	}
	return target
}

// writeWarmStartLog writes the log the warm-start tests restart over,
// through a server with a 64-entry cache: 100 keys, a snapshot of the
// 64 the cache then holds (i = 36..99), and a 35-record tail of 20 new
// keys, 10 re-commits of snapshot keys evicted since (i = 40..49), and
// 5 re-commits of keys the snapshot compacted away. The log holds 89
// distinct keys, more than the cache. A full replay keeps the tail's 35
// and the snapshot's last 29 others (i = 36..39 and 50..74), so the
// newest-first walk must step over the re-committed keys' older
// snapshot records.
func writeWarmStartLog(t *testing.T, dir string) {
	t.Helper()
	s, l := newWALServer(t, dir, func(cfg *Config) {
		cfg.CacheSize = 64
		cfg.SnapshotEvery = -1
	})
	get := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rec := do(t, s.Handler(), "GET", warmTarget(i), "")
			if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
				t.Fatalf("%s: %d X-Cache=%q, want a committed miss", warmTarget(i), rec.Code, rec.Header().Get("X-Cache"))
			}
		}
	}
	get(0, 100)
	s.maybeSnapshot()
	get(100, 120)
	get(40, 50)
	get(5, 10)
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
}

// fullReplay is the warm start's reference: every decision record
// replayed in log order into a cache of the given capacity and admitted
// on a hash match, the loop warm start ran before it recomputed only
// what the cache keeps.
func fullReplay(t *testing.T, rec *wal.Recovery, capacity int) *decisionLRU {
	t.Helper()
	ref := newDecisionLRU(capacity)
	for _, r := range rec.Records {
		var a fillArgs
		if r.Kind != wal.KindDecision || !parseDecisionKey(r.Key, &a) {
			continue
		}
		resp, herr := buildDecision(&a)
		if herr != nil {
			continue
		}
		d, err := encodeCached(resp)
		if err != nil {
			t.Fatalf("encode %q: %v", r.Key, err)
		}
		if d.hash == r.Hash {
			ref.Put(r.Key, d)
		}
	}
	return ref
}

// cacheEntry is one decision-cache entry as the warm-start tests compare
// it.
type cacheEntry struct {
	key  string
	body string
	hash uint64
}

// cacheEntries lists a decision cache, most recently used first.
func cacheEntries(l *decisionLRU) []cacheEntry {
	var out []cacheEntry
	l.forEach(func(key string, d *cachedDecision) {
		out = append(out, cacheEntry{key: key, body: string(d.head) + string(d.tail), hash: d.hash})
	})
	return out
}

// parkedGoroutines counts the goroutines whose dump shows them parked
// in the given wait state (such as "[sync.Mutex.Lock") inside fn.
func parkedGoroutines(state, fn string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	parked := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, state) && strings.Contains(g, fn) {
			parked++
		}
	}
	return parked
}

// parkedPoolWorkers counts the parpool worker goroutines parked waiting
// for work. A pool that is never closed leaves its workers parked; Close
// joins every worker on its way out, so a closed pool leaves none.
func parkedPoolWorkers() int {
	return parkedGoroutines("[sync.Cond.Wait", "parpool.(*Pool).work(")
}

// TestWarmStartMatchesFullReplay: warm start recomputes only the newest
// record of the keys the cache will keep, on BatchWorkers workers, yet
// must leave the cache exactly as a full log-order replay does — the
// same keys in the same recency order, with the same bodies and hashes
// — and must have closed its pool when New returns. A negative
// CacheSize, which New accepts and the LRU raises to one entry, keeps
// the newest key.
func TestWarmStartMatchesFullReplay(t *testing.T) {
	dir := t.TempDir()
	writeWarmStartLog(t, dir)
	for _, tc := range []struct{ cacheSize, workers, kept int }{
		{64, 1, 64}, {64, 2, 64}, {64, 8, 64}, {-1, 2, 1},
	} {
		before := parkedPoolWorkers()
		s, l := newWALServer(t, dir, func(cfg *Config) {
			cfg.CacheSize = tc.cacheSize
			cfg.BatchWorkers = tc.workers
		})
		if after := parkedPoolWorkers(); after != before {
			t.Errorf("%+v: %d parpool workers parked after New, %d before", tc, after, before)
		}
		if l.Recovery().SnapshotSeq == 0 {
			t.Fatal("restart did not recover from a snapshot")
		}
		want := cacheEntries(fullReplay(t, l.Recovery(), tc.cacheSize))
		if len(want) != tc.kept {
			t.Fatalf("%+v: full replay kept %d entries, want %d", tc, len(want), tc.kept)
		}
		got := cacheEntries(s.decisions)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: warm-started cache differs from a full replay", tc)
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("first difference at recency %d: got %q, want %q", i, got[i].key, want[i].key)
				}
			}
			t.Fatalf("got %d entries, want %d", len(got), len(want))
		}
		if r := s.walReplayed.Load(); r != uint64(tc.kept) {
			t.Errorf("%+v: replayed %d, want the cache size %d", tc, r, tc.kept)
		}
		if m := s.walMismatches.Load(); m != 0 {
			t.Errorf("%+v: %d replay mismatches, want 0", tc, m)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close log: %v", err)
		}
	}
}

// TestWarmStartJudgesKeyByNewestRecord: a key whose newest log record
// fails the hash check is counted and left out of the cache, even though
// an older record of it would verify, and its first request is computed
// cold.
func TestWarmStartJudgesKeyByNewestRecord(t *testing.T) {
	dir := t.TempDir()
	s1, l1 := newWALServer(t, dir, nil)
	for _, target := range walTestTargets {
		if rec := do(t, s1.Handler(), "GET", target, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", target, rec.Code)
		}
	}
	var a fillArgs
	if herr := s1.resolveLicense(&LicenseRequest{CTP: 21125, Destination: "india", EndUse: "modeling"}, &a); herr != nil {
		t.Fatal(herr)
	}
	key := string(appendDecisionKey(nil, &a))
	d, ok := s1.decisions.Get(key)
	if !ok {
		t.Fatalf("%s is not cached before the restart", walTestTargets[0])
	}
	if err := l1.Append(wal.Record{Kind: wal.KindDecision, Key: key, Regime: float64(a.th), Hash: d.hash ^ 1}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l1.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	s2, l2 := newWALServer(t, dir, nil)
	defer func() { _ = l2.Close() }()
	if m := s2.walMismatches.Load(); m != 1 {
		t.Fatalf("replay mismatches = %d, want 1", m)
	}
	if r := s2.walReplayed.Load(); r != uint64(len(walTestTargets)-1) {
		t.Fatalf("replayed %d, want %d", r, len(walTestTargets)-1)
	}
	for _, e := range cacheEntries(s2.decisions) {
		if e.key == key {
			t.Fatalf("key %q was admitted though its newest record fails the hash check", key)
		}
	}
	cold := do(t, newTestServer(t).Handler(), "GET", walTestTargets[0], "")
	rec := do(t, s2.Handler(), "GET", walTestTargets[0], "")
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first ask after restart: X-Cache=%q, want miss", got)
	}
	if rec.Code != http.StatusOK || rec.Body.String() != cold.Body.String() {
		t.Fatalf("first ask after restart: %d %q, want the cold body %q", rec.Code, rec.Body, cold.Body)
	}
	for _, target := range walTestTargets[1:] {
		if got := do(t, s2.Handler(), "GET", target, "").Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("%s after restart: X-Cache=%q, want hit", target, got)
		}
	}
}

func TestWALSnapshotCompactionTriggersAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, l1 := newWALServer(t, dir, func(cfg *Config) { cfg.SnapshotEvery = 3 })

	before := make(map[string]string, len(walTestTargets))
	for _, target := range walTestTargets {
		rec := do(t, s1.Handler(), "GET", target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", target, rec.Code)
		}
		before[target] = rec.Body.String()
	}
	if got := l1.Stats().Compactions; got < 1 {
		t.Fatalf("Compactions = %d after %d commits with SnapshotEvery=3", got, len(walTestTargets))
	}
	if err := l1.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	s2, l2 := newWALServer(t, dir, nil)
	defer func() { _ = l2.Close() }()
	if got := l2.Recovery().SnapshotSeq; got == 0 {
		t.Fatal("restart did not recover from a snapshot")
	}
	for _, target := range walTestTargets {
		rec := do(t, s2.Handler(), "GET", target, "")
		if got := rec.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("%s after compacted restart: X-Cache=%q, want hit", target, got)
		}
		if rec.Body.String() != before[target] {
			t.Fatalf("%s after compacted restart: body diverged", target)
		}
	}
}

func TestWatchWithoutWALIs404(t *testing.T) {
	h := newTestServer(t).Handler()
	rec := do(t, h, "GET", "/v1/watch", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("watch without WAL: %d, want 404", rec.Code)
	}
	if post := do(t, h, "POST", "/v1/watch", ""); post.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST watch: %d, want 405", post.Code)
	}
}

// watchStream opens /v1/watch against a live server and returns decoded
// events on a channel.
func watchStream(t *testing.T, ctx context.Context, base, since string) <-chan WatchEvent {
	t.Helper()
	url := base + "/v1/watch"
	if since != "" {
		url += "?since=" + since
	}
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatalf("watch request: %v", err)
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatalf("watch connect: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type: %q", ct)
	}
	events := make(chan WatchEvent, 16)
	go func() {
		defer resp.Body.Close()
		defer close(events)
		scan := bufio.NewScanner(resp.Body)
		for scan.Scan() {
			line := scan.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev WatchEvent
			if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil {
				events <- ev
			}
		}
	}()
	return events
}

func TestWatchStreamsRegimeTransitions(t *testing.T) {
	dir := t.TempDir()
	s, l := newWALServer(t, dir, nil)
	defer func() { _ = l.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := watchStream(t, ctx, ts.URL, "")

	// Two commits under one threshold, then one under another: exactly
	// one regime transition.
	for i, th := range []string{"2000", "2000", "7000"} {
		target := fmt.Sprintf("%s/v1/license?ctp=21125&dest=india&endUse=watch%d&threshold=%s", ts.URL, i, th)
		resp, err := http.Get(target)
		if err != nil {
			t.Fatalf("license: %v", err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("license: %d", resp.StatusCode)
		}
	}

	select {
	case ev := <-events:
		if ev.Kind != EventRegime {
			t.Fatalf("event kind = %q, want regime", ev.Kind)
		}
		if ev.PrevMtops != 2000 || ev.Mtops != 7000 {
			t.Fatalf("transition %v -> %v, want 2000 -> 7000", ev.PrevMtops, ev.Mtops)
		}
		if ev.Seq == 0 {
			t.Fatal("event missing sequence number")
		}
	case <-ctx.Done():
		t.Fatal("no regime-transition event arrived")
	}

	// A second subscriber using ?since=0 replays the same event from the
	// ring instead of needing new traffic.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	replayed := watchStream(t, ctx2, ts.URL, "0")
	select {
	case ev := <-replayed:
		if ev.Kind != EventRegime || ev.Mtops != 7000 {
			t.Fatalf("replayed event = %+v", ev)
		}
	case <-ctx2.Done():
		t.Fatal("since=0 subscriber got no backlog event")
	}
}

func TestWatchStreamEndsOnHubClose(t *testing.T) {
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	sctx, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- s.Serve(sctx, ln) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := watchStream(t, ctx, "http://"+ln.Addr().String(), "")

	// Cancelling Serve's context closes the hub before the drain: the
	// stream must end promptly and Serve return cleanly within
	// DrainTimeout — the property that keeps graceful drain from waiting
	// out watchers.
	begin := time.Now()
	stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
		if d := time.Since(begin); d >= DefaultDrainTimeout {
			t.Fatalf("Serve took %v to drain, want under %v", d, DefaultDrainTimeout)
		}
	case <-ctx.Done():
		t.Fatal("Serve did not return after its context was cancelled")
	}
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return
			}
		case <-ctx.Done():
			t.Fatal("watch stream did not end after the drain")
		}
	}
}

// regimeEvents returns the regime events the server's hub still holds,
// oldest first.
func regimeEvents(s *Server) []WatchEvent {
	sub, backlog, _ := s.hub.subscribe(0)
	s.hub.unsubscribe(sub)
	var out []WatchEvent
	for _, ev := range backlog {
		if ev.Kind == EventRegime {
			out = append(out, ev)
		}
	}
	return out
}

// TestRegimeTransitionAcrossRestart: warm start seeds the one regime
// detector from the newest recovered decision, so the first commit under
// another threshold after a restart is a transition on both records an
// operator reads: one regime event naming the commit's key on the watch
// stream, and the commit's capture pinned with its breaker note.
func TestRegimeTransitionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, l1 := newWALServer(t, dir, nil)
	if rec := do(t, s1.Handler(), "GET", "/v1/license?ctp=21125&dest=india&endUse=before&threshold=2000", ""); rec.Code != http.StatusOK {
		t.Fatalf("commit at 2000: %d", rec.Code)
	}
	if err := l1.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	s2, l2 := newWALServer(t, dir, nil)
	defer func() { _ = l2.Close() }()
	h := s2.Handler()
	if rec := getWithID(h, "/v1/license?ctp=21125&dest=india&endUse=after&threshold=7000", "crossing"); rec.Code != http.StatusOK {
		t.Fatalf("commit at 7000: %d", rec.Code)
	}
	var key string
	for _, c := range flightRec(t, h).Captures {
		if c.TraceID == "crossing" {
			key = c.Key
		}
	}
	if !strings.Contains(key, "after") {
		t.Fatalf("the 7000 commit's capture has key %q", key)
	}

	events := regimeEvents(s2)
	if len(events) != 1 {
		t.Fatalf("regime events after restart = %+v, want exactly one", events)
	}
	if ev := events[0]; ev.PrevMtops != 2000 || ev.Mtops != 7000 || ev.Key != key {
		t.Fatalf("regime event = %+v, want 2000 -> 7000 for key %q", ev, key)
	}

	pinned := false
	for _, pg := range flightRec(t, h).Pins {
		c := pg.Captures[len(pg.Captures)-1]
		if pg.Trigger == "request:regime-transition" && c.Key == key {
			pinned = true
			if c.Breaker != "regime 2000->7000" {
				t.Errorf("pinned capture breaker = %q, want %q", c.Breaker, "regime 2000->7000")
			}
		}
	}
	if !pinned {
		t.Fatal("the commit that crossed the restart boundary was not pinned as a regime transition")
	}
}

// regimeSeedTargets are the commits of the regime-seed tests: dest=zzz
// at 2000, then dest=aaa at 7000. A snapshot sorts aaa's key first, so
// its newest record is the 2000 commit, not the last one.
var regimeSeedTargets = []string{
	"/v1/license?ctp=21125&dest=zzz&threshold=2000",
	"/v1/license?ctp=21125&dest=aaa&threshold=7000",
}

// TestRegimeSeedSurvivesCompaction: with SnapshotEvery 2, the two
// regime-seed commits leave a snapshot and an empty tail. The snapshot
// carries the 7000 commit as the record appended last, so after a
// restart a further commit at 7000 is no transition: it publishes no
// regime event and pins nothing. A seed taken from the snapshot's newest
// record, the 2000 commit in sort order, would report a spurious
// 2000->7000 transition.
func TestRegimeSeedSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s1, l1 := newWALServer(t, dir, func(cfg *Config) { cfg.SnapshotEvery = 2 })
	for _, target := range regimeSeedTargets {
		if rec := do(t, s1.Handler(), "GET", target, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", target, rec.Code)
		}
	}
	if c := l1.Stats().Compactions; c != 1 {
		t.Fatalf("compactions = %d, want 1", c)
	}
	if err := l1.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	s2, l2 := newWALServer(t, dir, nil)
	defer func() { _ = l2.Close() }()
	rec := l2.Recovery()
	if rec.SnapshotRecords != 2 || len(rec.Records) != 2 || rec.Records[1].Regime != 2000 {
		t.Fatalf("recovered %+v, want the two-record snapshot ending at the 2000 commit", rec.Records)
	}
	h := s2.Handler()
	if r := do(t, h, "GET", "/v1/license?ctp=21125&dest=aaa&endUse=after&threshold=7000", ""); r.Code != http.StatusOK {
		t.Fatalf("commit at 7000: %d", r.Code)
	}
	if events := regimeEvents(s2); len(events) != 0 {
		t.Fatalf("regime events after the restart = %+v, want none", events)
	}
	for _, pg := range flightRec(t, h).Pins {
		if pg.Trigger == "request:regime-transition" {
			t.Fatalf("a commit under the unchanged threshold was pinned: %+v", pg.Captures[len(pg.Captures)-1])
		}
	}
}

// TestRegimeSeedFromV1Snapshot: a v1 snapshot, which carries no last
// record, still recovers warm, and over an empty tail it seeds the
// detector as it always did: from the newest recovered record, the
// snapshot's last key in sort order.
func TestRegimeSeedFromV1Snapshot(t *testing.T) {
	s0 := newTestServer(t)
	bodies := map[string]string{}
	for _, target := range regimeSeedTargets {
		bodies[target] = do(t, s0.Handler(), "GET", target, "").Body.String()
	}
	var live []wal.Record
	s0.decisions.forEach(func(key string, d *cachedDecision) {
		th, _ := keyThreshold(key)
		live = append(live, wal.Record{Kind: wal.KindDecision, Key: key, Regime: th, Hash: d.hash})
	})

	// A log that has appended nothing has no last record to carry, so
	// its snapshot is written in the v1 format.
	dir := t.TempDir()
	l0, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := l0.Snapshot(live); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	seq := l0.Stats().Segment
	if err := l0.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", seq)))
	if err != nil || !strings.HasPrefix(string(data), "HPCSNAP1") {
		t.Fatalf("snapshot %d is not v1 (err %v)", seq, err)
	}

	s, l := newWALServer(t, dir, nil)
	defer func() { _ = l.Close() }()
	if rec := l.Recovery(); rec.Last != (wal.Record{}) || rec.SnapshotRecords != 2 {
		t.Fatalf("v1 recovery = %+v, want two snapshot records and no Last", rec)
	}
	if !s.haveRegime || s.lastRegime != 2000 {
		t.Fatalf("seed = %v (have %v), want 2000 from the snapshot's last key", s.lastRegime, s.haveRegime)
	}
	for _, target := range regimeSeedTargets {
		rec := do(t, s.Handler(), "GET", target, "")
		if rec.Header().Get("X-Cache") != "hit" || rec.Body.String() != bodies[target] {
			t.Fatalf("%s over a v1 snapshot: X-Cache=%q, body %q, want the warm %q",
				target, rec.Header().Get("X-Cache"), rec.Body, bodies[target])
		}
	}
}

// TestAnswerFollowsLogRecord: no answer for a key leaves before its log
// record is appended. The test holds walMu, so a leader GET of K blocks
// in walCommit before its append; a second GET of K must then get no
// answer, neither a cache hit nor a coalesced one, until the log holds
// the record. The test waits on events, not on time: the leader is seen
// parked on walMu in the goroutine dump, and the second GET announces
// its join through the singleflight group's OnWait hook.
func TestAnswerFollowsLogRecord(t *testing.T) {
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	h := s.Handler()
	const target = "/v1/license?ctp=21125&dest=india&endUse=acked"
	joined := make(chan struct{}, 1)
	onWait := s.flights.OnWait
	s.flights.OnWait = func() {
		onWait()
		joined <- struct{}{}
	}

	s.walMu.Lock()
	held := true
	defer func() {
		if held {
			s.walMu.Unlock()
		}
	}()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- do(t, h, "GET", target, "") }()
	deadline := time.Now().Add(10 * time.Second)
	for parkedGoroutines("[sync.Mutex.Lock", "serve.(*Server).walCommit(") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the leader never parked on walMu in walCommit")
		}
		runtime.Gosched()
	}

	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- do(t, h, "GET", target, "") }()
	select {
	case rec := <-second:
		t.Fatalf("second GET answered %d (X-Cache %q) with %d appends, before the leader's record",
			rec.Code, rec.Header().Get("X-Cache"), l.Stats().Appends)
	case <-joined:
	}
	if n := l.Stats().Appends; n != 0 {
		t.Fatalf("appends = %d while walMu is held, want 0", n)
	}
	s.walMu.Unlock()
	held = false
	first, rec := <-leader, <-second
	if n := l.Stats().Appends; n != 1 {
		t.Fatalf("appends = %d once both GETs are answered, want 1", n)
	}
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("leader: %d X-Cache=%q, want 200 miss", first.Code, first.Header().Get("X-Cache"))
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" || rec.Body.String() != first.Body.String() {
		t.Fatalf("second GET: %d X-Cache=%q, want 200 hit with the leader's body", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestRecoveryReadableDuringCompaction: Recovery() and /v1/healthz read
// the log's recovery while concurrent commits compact it. Under -race
// this pins that the release at the first compaction replaces the
// recovery rather than writing into the value a reader holds. The
// tallies healthz reports do not move, and the records are gone once a
// compaction has run.
func TestRecoveryReadableDuringCompaction(t *testing.T) {
	const callers, perCaller = 2, 12
	dir := t.TempDir()
	writeWarmStartLog(t, dir)
	s, l := newWALServer(t, dir, func(cfg *Config) { cfg.SnapshotEvery = 2 })
	defer func() { _ = l.Close() }()
	h := s.Handler()
	opened := l.Recovery()
	if len(opened.Records) == 0 {
		t.Fatal("the restart recovered no records")
	}
	segments, snapRecs := opened.Segments, opened.SnapshotRecords

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := l.Recovery()
			if n := len(rec.Records); n != 0 && n != len(opened.Records) {
				t.Errorf("Recovery() read %d records mid-compaction, want %d or 0", n, len(opened.Records))
			}
			if rec.Segments != segments || rec.SnapshotRecords != snapRecs {
				t.Errorf("Recovery() tallies moved: %+v", rec)
			}
			runtime.Gosched()
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var hr HealthResponse
			if err := json.Unmarshal(do(t, h, "GET", "/v1/healthz", "").Body.Bytes(), &hr); err != nil || hr.WAL == nil {
				t.Errorf("healthz: %v", err)
				return
			}
			if hr.WAL.TornRecords != opened.TornRecords || hr.WAL.CorruptRecs != opened.CorruptRecords {
				t.Errorf("healthz damage tallies moved: %+v", hr.WAL)
			}
		}
	}()

	var writers sync.WaitGroup
	for c := range callers {
		writers.Add(1)
		go func(c int) {
			defer writers.Done()
			for i := range perCaller {
				target := fmt.Sprintf("/v1/license?ctp=%d&dest=india&endUse=release%d", 700+c*perCaller+i, i)
				if rec := do(t, h, "GET", target, ""); rec.Code != http.StatusOK {
					t.Errorf("%s: %d", target, rec.Code)
				}
			}
		}(c)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	if c := l.Stats().Compactions; c == 0 {
		t.Fatal("no compaction ran")
	}
	rec := l.Recovery()
	if rec.Records != nil || rec.Last != (wal.Record{}) {
		t.Fatalf("after compaction: %d records and Last %+v, want both released", len(rec.Records), rec.Last)
	}
	if rec.Segments != segments || rec.SnapshotRecords != snapRecs {
		t.Fatalf("tallies moved: %+v", rec)
	}
}

// TestRegimeEventsMatchPins: concurrent commits of distinct keys under
// alternating thresholds give one consistent record. The regime events
// chain — each one's PrevMtops is the previous one's Mtops — and they
// name exactly the keys whose captures carry the regime-transition
// anomaly, each with the matching breaker note.
func TestRegimeEventsMatchPins(t *testing.T) {
	const n = 24
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := fmt.Sprintf("/v1/license?ctp=21125&dest=india&endUse=race%d&threshold=%d",
				i, []int{2000, 7000}[i%2])
			if rec := do(t, h, "GET", target, ""); rec.Code != http.StatusOK {
				t.Errorf("%s: %d", target, rec.Code)
			}
		}(i)
	}
	wg.Wait()

	events := regimeEvents(s)
	if len(events) == 0 {
		t.Fatal("commits under two thresholds published no regime event")
	}
	fromEvents := map[string]string{}
	for i, ev := range events {
		if ev.Mtops == ev.PrevMtops {
			t.Errorf("event %d is no transition: %+v", i, ev)
		}
		if i > 0 && ev.PrevMtops != events[i-1].Mtops {
			t.Errorf("event %d starts at %v, but event %d ended at %v", i, ev.PrevMtops, i-1, events[i-1].Mtops)
		}
		fromEvents[ev.Key] = fmt.Sprintf("regime %v->%v", ev.PrevMtops, ev.Mtops)
	}
	fromCaptures := map[string]string{}
	for _, c := range flightRec(t, h).Captures {
		if slices.Contains(c.Anomalies, "regime-transition") {
			fromCaptures[c.Key] = c.Breaker
		}
	}
	if !reflect.DeepEqual(fromEvents, fromCaptures) {
		t.Fatalf("regime events name %v, transition captures %v", fromEvents, fromCaptures)
	}
}

// TestWatchSubscriberLimit: the hub admits maxWatchers streams and
// answers the next 503, and healthz and the watch_subscribers gauge both
// report the one count of live streams.
func TestWatchSubscriberLimit(t *testing.T) {
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < maxWatchers; i++ {
		watchStream(t, ctx, ts.URL, "")
	}

	resp, err := http.Get(ts.URL + "/v1/watch")
	if err != nil {
		t.Fatalf("watch past the limit: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("watch past the limit: %d, want 503", resp.StatusCode)
	}
	if got := healthOf(t, s).WAL.Watchers; got != maxWatchers {
		t.Errorf("healthz watchers = %d, want %d", got, maxWatchers)
	}
	want := fmt.Sprintf("\nwatch_subscribers %d\n", maxWatchers)
	if prom := do(t, s.Handler(), "GET", "/metrics", "").Body.String(); !strings.Contains(prom, want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}
}

func TestParseDecisionKeyInvertsAppend(t *testing.T) {
	s := newTestServer(t)
	reqs := []LicenseRequest{
		{CTP: 21125, Destination: "India", EndUse: "modeling"},
		{CTP: 1500, Destination: "poland", Threshold: 7000},
		{System: "Cray C916", Destination: "russia", EndUse: "oil"},
	}
	for _, req := range reqs {
		var a fillArgs
		if herr := s.resolveLicense(&req, &a); herr != nil {
			t.Fatalf("resolve %+v: %v", req, herr)
		}
		key := string(appendDecisionKey(nil, &a))
		var back fillArgs
		if !parseDecisionKey(key, &back) {
			t.Fatalf("parseDecisionKey rejected %q", key)
		}
		if back != a {
			t.Fatalf("round trip %+v != %+v", back, a)
		}
	}
	var junk fillArgs
	for _, bad := range []string{"", "a\x1fb", "a\x1fx\x1fc\x1fd\x1f2", "a\x1f1\x1fc\x1fd\x1fx"} {
		if parseDecisionKey(bad, &junk) {
			t.Fatalf("parseDecisionKey accepted %q", bad)
		}
	}
}

func TestWALHealthAndMetricsExposure(t *testing.T) {
	dir := t.TempDir()
	s, l := newWALServer(t, dir, nil)
	defer func() { _ = l.Close() }()
	h := s.Handler()
	if rec := do(t, h, "GET", walTestTargets[0], ""); rec.Code != http.StatusOK {
		t.Fatalf("license: %d", rec.Code)
	}

	var hr HealthResponse
	rec := do(t, h, "GET", "/v1/healthz", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hr.WAL == nil {
		t.Fatal("healthz missing wal block while a log is mounted")
	}
	if hr.WAL.Appends != 1 {
		t.Fatalf("healthz wal.appends = %d, want 1", hr.WAL.Appends)
	}

	prom := do(t, h, "GET", "/metrics", "").Body.String()
	for _, family := range []string{
		"wal_appends_total", "wal_fsyncs_total", "snapshot_compactions_total",
		"watch_subscribers", "wal_replay_mismatches_total",
	} {
		if !strings.Contains(prom, family) {
			t.Errorf("/metrics missing %s while a log is mounted", family)
		}
	}

	// And the logless exposition must not grow: no wal families.
	bare := do(t, newTestServer(t).Handler(), "GET", "/metrics", "").Body.String()
	if strings.Contains(bare, "wal_") || strings.Contains(bare, "watch_") {
		t.Error("logless daemon exposes wal/watch metric families")
	}
	var bareHealth HealthResponse
	recBare := do(t, newTestServer(t).Handler(), "GET", "/v1/healthz", "")
	if err := json.Unmarshal(recBare.Body.Bytes(), &bareHealth); err != nil {
		t.Fatal(err)
	}
	if bareHealth.WAL != nil {
		t.Error("logless healthz reports a wal block")
	}
}

// TestCompactionKeepsEveryAnsweredDecision races cold decisions against
// snapshot compaction: 4 callers each ask 20 distinct cold queries of a
// server that compacts every 64 commits, then the log is closed and
// reopened, and every decision the server answered — every key in its
// decision cache, which holds all 80 — must be in the recovered log.
// A compaction replaces the older segments with the LRU's live set, so
// a decision Put after that set is collected but appended before the
// rotation was in neither; holding walMu across both closes the window.
// The loss is a narrow interleaving, so the test runs many trials.
func TestCompactionKeepsEveryAnsweredDecision(t *testing.T) {
	const trials, callers, perCaller = 400, 4, 20
	for trial := range trials {
		dir := t.TempDir()
		s, l := newWALServer(t, dir, func(cfg *Config) { cfg.SnapshotEvery = 64 })
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range perCaller {
					target := fmt.Sprintf("/v1/license?ctp=%d&dest=india&endUse=trial%d", 500+c*perCaller+i, trial)
					if rec := do(t, s.Handler(), "GET", target, ""); rec.Code != http.StatusOK {
						t.Errorf("%s: %d", target, rec.Code)
					}
				}
			}(c)
		}
		wg.Wait()
		if err := l.Close(); err != nil {
			t.Fatalf("close log: %v", err)
		}
		reopened, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen log: %v", err)
		}
		logged := map[string]bool{}
		for _, r := range reopened.Recovery().Records {
			logged[r.Key] = true
		}
		if err := reopened.Close(); err != nil {
			t.Fatalf("close reopened log: %v", err)
		}
		var missing int
		s.decisions.forEach(func(key string, _ *cachedDecision) {
			if !logged[key] {
				missing++
			}
		})
		if n := s.decisions.Len(); n != callers*perCaller {
			t.Fatalf("trial %d: the cache holds %d decisions, want all %d answered", trial, n, callers*perCaller)
		}
		if missing > 0 {
			t.Fatalf("trial %d: %d answered decisions missing from the recovered log (compactions %d)",
				trial, missing, l.Stats().Compactions)
		}
	}
}
