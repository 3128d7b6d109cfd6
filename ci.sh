#!/bin/sh
# ci.sh — the repository's extended verification pipeline (see ROADMAP.md).
# Every step must pass; the script stops at the first failure.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go vet ./... in perfbench (its own module) =="
# perfbench is a separate module, so go build ./... never compiles it;
# vetting it here catches changes to the serve API it calls.
(cd perfbench && go vet ./...)

echo "== hpcvet ./... (json + baseline + stats) =="
# One run does triple duty: -format json proves the machine-readable path,
# -baseline diffs the findings against the committed grandfather list
# (new findings fail; burned-down entries are reported on stderr), and
# -stats prints per-checker finding counts and wall-clock timing.
go run ./cmd/hpcvet -format json -baseline ci/hpcvet_baseline.json -stats ./... > /dev/null

echo "== go vet ./cmd/hpcexportd ./internal/obs =="
go vet ./cmd/hpcexportd ./internal/obs

echo "== hpcvet ./internal/obs ./internal/serve (observability gates) =="
go run ./cmd/hpcvet ./internal/obs ./internal/serve

echo "== go test -race ./... =="
go test -race ./...

echo "== go test -shuffle=on ./... =="
go test -shuffle=on ./... > /dev/null

echo "== parpool barrier/reduction under -race, repeated =="
go test -race -count=2 ./internal/parpool/

echo "== request deadline, ctx-aware singleflight, parallel warm start, concurrent cold batches, gateway fetch goroutines, request records, gateway request IDs, the regime detector, the log's commit order and release, and watch drain under -race, repeated =="
# The waiter that leaves its flight at ctx.Done(), the coalesced herd,
# the cut wait answered 503, the overrunning fill that keeps its
# semaphore slot, the warm start that recomputes on a transient worker
# pool (same cache as a full replay; a key judged by its newest record),
# cold batches from several callers filling side by side through one
# cache and one flight group, cold batches from several callers
# forwarded whole through the gateway, and the gateway's parked fetch
# goroutines (one reused across sequential GETs; hedges and herds run on
# reused goroutines, and Close releases them), the one
# record per request (spans ended on many goroutines, a cold batch's
# bounded record of per-fill spans, a pinned record keeping its spans
# past ring wrap, /v1/traces and /v1/flightrec read from one ring), a
# held gateway herd answering each request under its own ID, the one
# regime detector (seeded across a restart; concurrent commits whose
# regime events chain and name exactly the pinned transition captures),
# the decision log's ordering and release (a second GET held until the
# leader's record is appended; Recovery() and /v1/healthz read while
# concurrent commits compact), and a Serve drain that ends open watch
# streams, server-side and through the client, each run ten times under
# the race detector. A -run pattern that matches nothing passes
# silently, so the step first requires go test -list to find every name
# it gives.
race_tests='TestWaiterLeavesAtContextEnd|TestCoalescedFillsAreByteIdentical|TestCoalescedWaitEndsAtDeadline|TestMaxInFlightBoundsOverrunningFills|TestWarmStartMatchesFullReplay|TestWarmStartJudgesKeyByNewestRecord|TestConcurrentColdBatches|TestLauncherReusesOneParkedFetcher|TestLauncherHedgesOnReusedFetchers|TestGatewayHedgeByteIdentity|TestGatewayHerdSingleFill|TestGatewayConcurrentColdBatches|TestRecordConcurrentSpans|TestSpanDoubleEndAndLateChild|TestColdBatchRecord|TestPinnedRecordKeepsSpansPastRingWrap|TestTracesAndFlightRecReadOneRing|TestGatewayHerdEchoesEachRequestID|TestRegimeTransitionAcrossRestart|TestRegimeEventsMatchPins|TestAnswerFollowsLogRecord|TestRecoveryReadableDuringCompaction|TestWatchStreamEndsOnHubClose|TestWatchEndsCleanlyOnServerDrain'
race_pkgs='./internal/singleflight/ ./internal/obs/ ./internal/serve/ ./internal/serve/client/ ./internal/gateway/'
listed=$(go test -list "^($race_tests)\$" $race_pkgs)
missing=""
for name in $(echo "$race_tests" | tr '|' ' '); do
	if ! echo "$listed" | grep -qx "$name"; then
		missing="$missing $name"
	fi
done
if [ -n "$missing" ]; then
	echo "ci.sh: the race step names tests that no package defines:$missing" >&2
	exit 1
fi
go test -race -count=10 -run "^($race_tests)\$" $race_pkgs

echo "== bench smoke (one iteration of every benchmark) =="
go test -run '^$' -bench . -benchtime=1x ./... > /dev/null

echo "== /metrics scrape stability against a live daemon =="
scrapedir=$(mktemp -d)
go build -o "$scrapedir/hpcexportd" ./cmd/hpcexportd
go build -o "$scrapedir/exportctl" ./cmd/exportctl
scrapepid=""
chaospid=""
trap 'kill $scrapepid $chaospid 2>/dev/null || true; rm -rf "$scrapedir"' EXIT
"$scrapedir/hpcexportd" -addr localhost:18095 -quiet &
scrapepid=$!
up=0
for _ in $(seq 1 50); do
	if "$scrapedir/exportctl" -scrape -serve http://localhost:18095 > /dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: daemon never came up for the scrape check" >&2
	exit 1
fi
# Some traffic, so the diff is over non-zero counters; then two scrapes
# of the now-idle daemon must be byte-identical.
"$scrapedir/exportctl" -serve http://localhost:18095 -date 1995.45 > /dev/null
"$scrapedir/exportctl" -scrape -serve http://localhost:18095 > "$scrapedir/scrape1"
"$scrapedir/exportctl" -scrape -serve http://localhost:18095 > "$scrapedir/scrape2"
diff "$scrapedir/scrape1" "$scrapedir/scrape2"
# Reading the request records never records: two reads each of
# /v1/traces and /v1/flightrec of the idle daemon are byte-identical, and
# the traffic above left span trees in them.
for ep in traces flightrec; do
	curl -fsS "http://localhost:18095/v1/$ep" > "$scrapedir/${ep}1"
	curl -fsS "http://localhost:18095/v1/$ep" > "$scrapedir/${ep}2"
	cmp "$scrapedir/${ep}1" "$scrapedir/${ep}2"
	if ! grep -q '"spans":\[' "$scrapedir/${ep}1"; then
		echo "ci.sh: /v1/$ep holds no span trees after traffic" >&2
		exit 1
	fi
done
kill "$scrapepid"
scrapepid=""

echo "== profile overrides naming a route the policy never applies to are refused =="
# A fault override of a misspelled route, and an SLO override of a
# self-observed one, would be accepted and govern nothing: the daemon
# must refuse each at start-up (status 1), not serve until timeout kills
# it (status 124).
for spec in "-fault-profile=/v1/licence:error=1" "-slo=availability=0.99;/metrics:availability=0.999"; do
	status=0
	timeout 5 "$scrapedir/hpcexportd" -addr localhost:18104 -quiet "$spec" 2> /dev/null || status=$?
	if [ "$status" != 1 ]; then
		echo "ci.sh: hpcexportd $spec exited $status, want 1" >&2
		exit 1
	fi
done

echo "== chaos: exportctl converges against a faulted daemon =="
# Seed 90 schedules error, error, poison for /v1/threshold: the single
# review below needs two retries and then converges on a degraded
# (cache-bypassed) recomputation — retry loop and fallback both proven.
"$scrapedir/hpcexportd" -addr localhost:18096 -quiet -fault-seed 90 -fault-profile chaos 2> /dev/null &
chaospid=$!
up=0
for _ in $(seq 1 50); do
	# /metrics is exempt from injection, so readiness polling consumes
	# no slots of the fault schedule.
	if "$scrapedir/exportctl" -scrape -serve http://localhost:18096 > /dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: faulted daemon never came up for the chaos check" >&2
	exit 1
fi
# The review must converge through the client's retries despite the
# chaos profile (30% injected errors), and the fault counters the
# daemon accumulated must then match the seed-90 schedule exactly.
"$scrapedir/exportctl" -serve http://localhost:18096 -date 1995.45 -attempts 8 > /dev/null
"$scrapedir/exportctl" -scrape -serve http://localhost:18096 |
	grep -E '^(fault_injected_total|degraded_responses_total)' > "$scrapedir/faults"
diff "$scrapedir/faults" ci/fault_counters.golden
kill "$chaospid"
chaospid=""

echo "== hpcloadgen smoke (closed loop vs BENCH_throughput.json) =="
# A short closed-loop run against a fresh daemon, compared against the
# committed throughput baseline with a generous tolerance: this catches
# order-of-magnitude collapses (a lost cache, a serialized batch path),
# not machine-to-machine variance. The committed baseline was measured
# with -duration 5s -conc 16 -batch-size 256 on the reference box.
go build -o "$scrapedir/hpcloadgen" ./cmd/hpcloadgen
"$scrapedir/hpcexportd" -addr localhost:18097 -quiet &
loadpid=$!
trap 'kill $scrapepid $chaospid $loadpid 2>/dev/null || true; rm -rf "$scrapedir"' EXIT
up=0
for _ in $(seq 1 50); do
	if "$scrapedir/exportctl" -scrape -serve http://localhost:18097 > /dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: daemon never came up for the loadgen smoke" >&2
	exit 1
fi
"$scrapedir/hpcloadgen" -serve http://localhost:18097 \
	-duration 1s -warmup 300ms -conc 8 -scenario get,batch -batch-size 256 \
	-o "$scrapedir/throughput.json" -against BENCH_throughput.json -tolerance 0.95
kill "$loadpid"
loadpid=""

echo "== perfbench smoke (live traffic through both daemons and the WAL, byte-checked) =="
# One short run per workload: hot-get drives cached GETs through a
# server, cold-post-wal POSTs new decisions through a warm-started WAL,
# and gateway-get sends hot-get's keys through the gateway over three
# backends. perfbench byte-compares every answer with its cold
# computation, so each run's last line must report "correct":true and
# "failed":0. The run builds from source into .bench_build.
for workload in hot-get cold-post-wal gateway-get; do
	bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 \
		> "$scrapedir/perfbench_$workload"
	last=$(tail -n 1 "$scrapedir/perfbench_$workload")
	case "$last" in
	*'"correct":true,'*'"failed":0,'*) ;;
	*)
		echo "ci.sh: perfbench $workload did not report correct with 0 failed: $last" >&2
		exit 1
		;;
	esac
done

echo "== hpcvet ./internal/wal (durability gates) =="
go run ./cmd/hpcvet ./internal/wal

echo "== wal fuzz smoke (record codec + segment replay + v1/v2 snapshot images) =="
# A short native-fuzz burst per target: enough to catch a fresh framing
# or recovery panic without the wall-clock cost of a real campaign. The
# committed corpora under internal/wal/testdata/fuzz replay in the
# ordinary `go test` runs above regardless.
go test -run '^$' -fuzz 'FuzzWALRecord$' -fuzztime 3s ./internal/wal > /dev/null
go test -run '^$' -fuzz 'FuzzSegmentReplay$' -fuzztime 3s ./internal/wal > /dev/null
go test -run '^$' -fuzz 'FuzzSnapshotReplay$' -fuzztime 3s ./internal/wal > /dev/null

echo "== decision-key fuzz smoke (the scanner warm start parses keys with) =="
go test -run '^$' -fuzz 'FuzzDecisionKeyRoundTrip$' -fuzztime 3s ./internal/serve > /dev/null

echo "== profile fuzz smoke (fault and SLO specs round-trip through String) =="
go test -run '^$' -fuzz 'FuzzFaultProfileRoundTrip$' -fuzztime 3s ./internal/fault > /dev/null
go test -run '^$' -fuzz 'FuzzSLOProfileRoundTrip$' -fuzztime 3s ./internal/slo > /dev/null

echo "== cached-decision fuzz smoke (head plus shared tail, against json.Marshal) =="
go test -run '^$' -fuzz 'FuzzCachedDecisionBytes$' -fuzztime 3s ./internal/serve > /dev/null

echo "== watch-stream fuzz smoke (the client's SSE reader, against encoding/json) =="
go test -run '^$' -fuzz 'FuzzWatchStream$' -fuzztime 3s ./internal/serve/client > /dev/null

echo "== wal: kill -9 mid-traffic, restart over a snapshot, byte-identical warm answers =="
# The durability contract, end to end against the real binary: decide a
# set of queries under -fsync always, compacting every second commit, so
# the five queries leave a v2 snapshot (HPCSNAP2) of the first four plus
# a one-record tail; kill the daemon without ceremony, restart over the
# same -data-dir, and require every first answer to be a warm-start
# cache hit byte-identical to the pre-crash response.
waldir="$scrapedir/waldata"
walpid=""
trap 'kill $scrapepid $chaospid $loadpid $walpid 2>/dev/null || true; rm -rf "$scrapedir"' EXIT
"$scrapedir/hpcexportd" -addr localhost:18098 -quiet -data-dir "$waldir" -fsync always -snapshot-every 2 &
walpid=$!
up=0
for _ in $(seq 1 50); do
	if curl -fsS http://localhost:18098/v1/healthz > /dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: wal daemon never came up" >&2
	exit 1
fi
for i in 1 2 3 4 5; do
	curl -fsS "http://localhost:18098/v1/license?ctp=21125&dest=india&endUse=crash$i" \
		> "$scrapedir/wal_before_$i"
done
kill -9 "$walpid"
wait "$walpid" 2> /dev/null || true
walpid=""
snaps=$(ls "$waldir"/snap-*.snap 2> /dev/null | wc -l)
if [ "$snaps" != 1 ] || [ "$(head -c 8 "$waldir"/snap-*.snap)" != HPCSNAP2 ]; then
	echo "ci.sh: five commits at -snapshot-every 2 left $snaps snapshots, want one HPCSNAP2" >&2
	exit 1
fi
"$scrapedir/hpcexportd" -addr localhost:18098 -quiet -data-dir "$waldir" -fsync always -snapshot-every 2 &
walpid=$!
up=0
for _ in $(seq 1 50); do
	if curl -fsS http://localhost:18098/v1/healthz > /dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: wal daemon never came back after kill -9" >&2
	exit 1
fi
for i in 1 2 3 4 5; do
	curl -fsS -D "$scrapedir/wal_headers" \
		"http://localhost:18098/v1/license?ctp=21125&dest=india&endUse=crash$i" \
		> "$scrapedir/wal_after_$i"
	if ! grep -qi '^x-cache: hit' "$scrapedir/wal_headers"; then
		echo "ci.sh: restarted daemon answered query $i cold (no warm-start hit)" >&2
		exit 1
	fi
	diff "$scrapedir/wal_before_$i" "$scrapedir/wal_after_$i"
done
kill "$walpid"
walpid=""

echo "== slo: burn-rate engine pages and the flight recorder pins under faults =="
# A daemon with an SLO profile mounted and every request answered by an
# injected 503: the availability signal must burn past the page
# threshold (slo_state 2) by the first scrape — the scrape itself runs
# the evaluation — and the flight recorder must hold the faulted
# requests as pinned anomaly groups.
slopid=""
trap 'kill $scrapepid $chaospid $loadpid $walpid $slopid 2>/dev/null || true; rm -rf "$scrapedir"' EXIT
"$scrapedir/hpcexportd" -addr localhost:18099 -quiet \
	-slo availability=0.99,latency=50ms -fault-seed 7 -fault-profile error=1 2> /dev/null &
slopid=$!
up=0
for _ in $(seq 1 50); do
	# /v1/healthz is exempt from injection, so readiness polling consumes
	# no slots of the fault schedule.
	if curl -fsS http://localhost:18099/v1/healthz > /dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: slo daemon never came up" >&2
	exit 1
fi
for i in 1 2 3 4 5 6 7 8; do
	curl -s -o /dev/null "http://localhost:18099/v1/license?ctp=500&dest=india&endUse=burn$i"
done
"$scrapedir/exportctl" -scrape -serve http://localhost:18099 > "$scrapedir/slo_scrape"
if ! grep -q '^slo_state{route="/v1/license",signal="availability"} 2' "$scrapedir/slo_scrape"; then
	echo "ci.sh: all-error traffic did not page the availability signal" >&2
	exit 1
fi
if ! curl -fsS http://localhost:18099/v1/slo | grep -q '"state":"page"'; then
	echo "ci.sh: /v1/slo does not report the page verdict" >&2
	exit 1
fi
"$scrapedir/exportctl" -flightrec -serve http://localhost:18099 > "$scrapedir/slo_flightrec"
if ! grep -q 'trigger request:5xx' "$scrapedir/slo_flightrec"; then
	echo "ci.sh: flight recorder holds no pinned 5xx capture" >&2
	exit 1
fi
kill "$slopid"
slopid=""

echo "== cluster: gateway over 3 backends, kill -9 one mid-traffic, drain and rejoin =="
# The routing contract end to end against the real binaries: three
# backends and one gateway, a spread of keyed traffic, then one backend
# killed without ceremony. The gateway must drain it (exportctl -cluster
# converges on 2/3 healthy), keep answering every key, and — after the
# backend restarts — rejoin it, all with zero hedge-identity mismatches.
# The backends run unfaulted: a fault plan leaves a backend's healthz
# sticky-degraded, which is the drain test's job in-process, not here.
go build -o "$scrapedir/hpcexportgw" ./cmd/hpcexportgw
gwpid=""
b1pid=""
b2pid=""
b3pid=""
trap 'kill $scrapepid $chaospid $loadpid $walpid $slopid $gwpid $b1pid $b2pid $b3pid 2>/dev/null || true; rm -rf "$scrapedir"' EXIT
"$scrapedir/hpcexportd" -addr localhost:18101 -quiet &
b1pid=$!
"$scrapedir/hpcexportd" -addr localhost:18102 -quiet &
b2pid=$!
"$scrapedir/hpcexportd" -addr localhost:18103 -quiet &
b3pid=$!
"$scrapedir/hpcexportgw" -addr localhost:18100 -quiet \
	-backends http://localhost:18101,http://localhost:18102,http://localhost:18103 \
	-probe-every 200ms -rejoin-after 2 &
gwpid=$!
up=0
for _ in $(seq 1 50); do
	if curl -fsS http://localhost:18100/v1/healthz 2> /dev/null | grep -q '"healthy":3'; then
		up=1
		break
	fi
	sleep 0.1
done
if [ "$up" != 1 ]; then
	echo "ci.sh: gateway never converged on 3 healthy backends" >&2
	exit 1
fi
# Keyed traffic across the ring: distinct (ctp, dest) pairs spread over
# all three owners; every response must come back 200 through the front.
for i in $(seq 1 20); do
	curl -fsS "http://localhost:18100/v1/license?ctp=$((500 + 37 * i))&dest=india" > /dev/null
done
# A batch goes whole to its first item's owner, which answers it as any
# single node does: a 64-item batch and a 257-item one (over the
# backends' 256-request limit) through the gateway must be
# byte-identical to the same body posted straight to a backend, 200 and
# 413.
for n in 64:200 257:413; do
	items=${n%:*}
	want=${n#*:}
	awk -v n="$items" 'BEGIN {
		printf "{\"requests\":["
		for (i = 1; i <= n; i++)
			printf "%s{\"ctp\":%d,\"destination\":\"france\"}", (i > 1 ? "," : ""), 1000 + 7 * i
		print "]}"
	}' > "$scrapedir/batch$items"
	for port in 18100 18101; do
		code=$(curl -sS -o "$scrapedir/batch${items}_$port" -w '%{http_code}' \
			-H 'Content-Type: application/json' --data-binary @"$scrapedir/batch$items" \
			"http://localhost:$port/v1/license")
		if [ "$code" != "$want" ]; then
			echo "ci.sh: a $items-item batch to port $port answered $code, want $want" >&2
			exit 1
		fi
	done
	cmp "$scrapedir/batch${items}_18100" "$scrapedir/batch${items}_18101"
done
kill -9 "$b2pid"
wait "$b2pid" 2> /dev/null || true
b2pid=""
# Traffic keeps flowing while the prober notices the corpse; the client's
# retries ride out the detection window.
for i in $(seq 1 20); do
	"$scrapedir/exportctl" -serve http://localhost:18100 -date 1995.45 -attempts 8 > /dev/null 2>&1 || true
	curl -fsS --retry 5 --retry-all-errors --retry-delay 0 \
		"http://localhost:18100/v1/license?ctp=$((500 + 37 * i))&dest=india" > /dev/null
done
converged=0
for _ in $(seq 1 50); do
	if "$scrapedir/exportctl" -cluster -serve http://localhost:18100 2> /dev/null |
		grep -q '2/3 backends healthy'; then
		converged=1
		break
	fi
	sleep 0.1
done
if [ "$converged" != 1 ]; then
	echo "ci.sh: exportctl -cluster never converged on 2/3 healthy after kill -9" >&2
	"$scrapedir/exportctl" -cluster -serve http://localhost:18100 >&2 || true
	exit 1
fi
"$scrapedir/hpcexportd" -addr localhost:18102 -quiet &
b2pid=$!
rejoined=0
for _ in $(seq 1 50); do
	if curl -fsS http://localhost:18100/metrics 2> /dev/null |
		grep -q '^gateway_backend_rejoins_total{backend="http://localhost:18102"} [1-9]'; then
		rejoined=1
		break
	fi
	sleep 0.1
done
if [ "$rejoined" != 1 ]; then
	echo "ci.sh: restarted backend never rejoined the ring" >&2
	"$scrapedir/exportctl" -cluster -serve http://localhost:18100 >&2 || true
	exit 1
fi
# The whole episode — hedges under a dying backend included — must end
# with zero byte-identity mismatches.
curl -fsS http://localhost:18100/metrics > "$scrapedir/gw_metrics"
if ! grep -q '^gateway_hedge_mismatch_total 0$' "$scrapedir/gw_metrics"; then
	echo "ci.sh: gateway reports hedge byte-identity mismatches:" >&2
	grep '^gateway_hedge' "$scrapedir/gw_metrics" >&2 || true
	exit 1
fi
# Reading the gateway's own request records never records: two reads
# each of its /v1/traces and /v1/flightrec are byte-identical and hold the
# keyed traffic's /v1/license records. The reads interleave, so a read of
# either that recorded itself would show in the other's second read. The
# idle gateway's ring is stable because the prober's health probes never
# pass through its middleware.
for i in 1 2; do
	for ep in traces flightrec; do
		curl -fsS "http://localhost:18100/v1/$ep" > "$scrapedir/gw_$ep$i"
	done
done
for ep in traces flightrec; do
	cmp "$scrapedir/gw_${ep}1" "$scrapedir/gw_${ep}2"
	if ! grep -q '/v1/license' "$scrapedir/gw_${ep}1"; then
		echo "ci.sh: the gateway's /v1/$ep holds no /v1/license records" >&2
		exit 1
	fi
done
kill "$gwpid" "$b1pid" "$b2pid" "$b3pid" 2> /dev/null || true
gwpid=""
b1pid=""
b2pid=""
b3pid=""

# Fuzz smoke (not run in CI — native fuzzing is wall-clock heavy; run
# locally before touching the parsers or the service request path):
#   go test -fuzz=FuzzParseCTP -fuzztime=30s ./internal/ctp
#   go test -fuzz=FuzzLicenseRequest -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzParseLicensePostBody -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzParseLicenseQuery -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzDecisionKeyRoundTrip -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzCachedDecisionBytes -fuzztime=30s ./internal/serve
#   go test -fuzz=FuzzWatchStream -fuzztime=30s ./internal/serve/client
#   go test -fuzz=FuzzFaultProfileRoundTrip -fuzztime=30s ./internal/fault
#   go test -fuzz=FuzzSLOProfileRoundTrip -fuzztime=30s ./internal/slo
#   go test -fuzz=FuzzWALRecord -fuzztime=30s ./internal/wal
#   go test -fuzz=FuzzSegmentReplay -fuzztime=30s ./internal/wal
#   go test -fuzz=FuzzSnapshotReplay -fuzztime=30s ./internal/wal

echo "ci.sh: all checks passed"
