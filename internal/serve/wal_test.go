package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
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

// parkedPoolWorkers counts the parpool worker goroutines parked waiting
// for work. A pool that is never closed leaves its workers parked; Close
// joins every worker on its way out, so a closed pool leaves none.
func parkedPoolWorkers() int {
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
		if strings.Contains(g, "[sync.Cond.Wait") && strings.Contains(g, "parpool.(*Pool).work(") {
			parked++
		}
	}
	return parked
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
func watchStream(t *testing.T, ctx context.Context, base, since string) <-chan wal.Event {
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
	events := make(chan wal.Event, 16)
	go func() {
		defer resp.Body.Close()
		defer close(events)
		scan := bufio.NewScanner(resp.Body)
		for scan.Scan() {
			line := scan.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev wal.Event
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
		if ev.Kind != wal.EventRegime {
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
		if ev.Kind != wal.EventRegime || ev.Mtops != 7000 {
			t.Fatalf("replayed event = %+v", ev)
		}
	case <-ctx2.Done():
		t.Fatal("since=0 subscriber got no backlog event")
	}
}

func TestWatchStreamEndsOnHubClose(t *testing.T) {
	dir := t.TempDir()
	s, l := newWALServer(t, dir, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := watchStream(t, ctx, ts.URL, "")

	// Closing the log closes the hub; the stream must end promptly — this
	// is the property that keeps graceful drain from waiting out watchers.
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	select {
	case _, ok := <-events:
		if ok {
			// Drain any buffered event; the channel must still close.
			for range events {
			}
		}
	case <-ctx.Done():
		t.Fatal("watch stream did not end after hub close")
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
