package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/serve"
)

// Scatter-gather for /v1/license batches: items partition by the ring
// owner of their canonical decision key, sub-batches fan out to the
// owners in parallel, and the answers reassemble in request order. The
// per-item bytes a backend renders are position-independent, so the
// reassembled body is byte-identical to the same batch answered by a
// single node — a property the cluster acceptance test pins against a
// single-node run of the same seeded mix.

// unroutedKey is the sentinel routing key for batch items that fail
// resolution: they have no canonical key, but they must still reach a
// backend (exactly one, deterministically) to render their canonical
// per-item error.
const unroutedKey = "\x00unrouted"

// batchShard is one owner's slice of a batch.
type batchShard struct {
	key  string // routing key: first item's canonical key
	idx  []int  // original positions, ascending
	reqs []serve.LicenseRequest

	res   *proxyResult
	items [][]byte
	err   error
}

func (g *Gateway) scatterGather(w http.ResponseWriter, r *http.Request, reqs []serve.LicenseRequest, rawBody []byte) {
	g.batches.Inc()

	// Partition by owner, shards ordered by first appearance so the
	// fan-out is independent of map iteration order.
	var order []*batchShard
	byOwner := make(map[string]*batchShard)
	var keyBuf []byte
	for i := range reqs {
		var key string
		if kb, ok := serve.ResolveDecisionKey(keyBuf[:0], &reqs[i]); ok {
			keyBuf = kb
			key = string(kb)
		} else {
			key = unroutedKey
		}
		owner := ""
		if b := g.ownerFor(key, nil); b != nil {
			owner = b.url
		}
		sh, ok := byOwner[owner]
		if !ok {
			sh = &batchShard{key: key}
			byOwner[owner] = sh
			order = append(order, sh)
		}
		sh.idx = append(sh.idx, i)
		sh.reqs = append(sh.reqs, reqs[i])
	}
	g.batchFanout.Add(uint64(len(order)))

	// One shard holds the whole batch: forward the original bytes — the
	// answer passes through untouched.
	id := w.Header()["X-Request-Id"]
	if len(order) == 1 {
		res, err := g.forwardKeyed(r.Context(), order[0].key, http.MethodPost, "/v1/license", rawBody, id, "")
		if err != nil {
			serve.WriteError(w, http.StatusBadGateway, "gateway: %v", err)
			return
		}
		writeProxyResult(w, res)
		return
	}

	// Each shard is one backend exchange, so each runs on a fetch
	// goroutine of its own.
	var wg sync.WaitGroup
	for _, sh := range order {
		wg.Add(1)
		g.launch(func() {
			defer wg.Done()
			g.fetchShard(r.Context(), sh, id)
		})
	}
	wg.Wait()

	for _, sh := range order {
		if sh.err != nil {
			serve.WriteError(w, http.StatusBadGateway, "gateway: batch shard failed: %v", sh.err)
			return
		}
		if sh.res.status != http.StatusOK {
			// A backend rejected its sub-batch outright; relay its answer
			// (the canonical error) rather than inventing one.
			writeProxyResult(w, sh.res)
			return
		}
	}

	// Reassemble in request order, byte-identical to a single node's
	// rendering of the same batch.
	items := make([][]byte, len(reqs))
	for _, sh := range order {
		for j, pos := range sh.idx {
			items[pos] = sh.items[j]
		}
	}
	body := append([]byte(nil), batchBodyPrefix...)
	for i, it := range items {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, it...)
	}
	body = append(body, ']', '}', '\n')
	serve.WriteRawJSON(w, http.StatusOK, body)
}

// fetchShard forwards one shard's sub-batch to its owner and splits a
// 200 answer into per-item bytes. A failure lands in sh.err.
func (g *Gateway) fetchShard(ctx context.Context, sh *batchShard, id []string) {
	body, err := encodeBatch(sh.reqs)
	if err != nil {
		sh.err = err
		return
	}
	sh.res, sh.err = g.forwardKeyed(ctx, sh.key, http.MethodPost, "/v1/license", body, id, "")
	if sh.err != nil || sh.res.status != http.StatusOK {
		return
	}
	items, ok := splitBatchItems(sh.res.body)
	if !ok || len(items) != len(sh.idx) {
		sh.err = errUnsplittable
		return
	}
	sh.items = items
}

var errUnsplittable = jsonError("backend batch response did not parse")

type jsonError string

func (e jsonError) Error() string { return string(e) }

// encodeBatch renders a sub-batch body.
func encodeBatch(reqs []serve.LicenseRequest) ([]byte, error) {
	return json.Marshal(serve.BatchRequest{Requests: reqs})
}

// batchBodyPrefix is the backends' batch response framing; the split and
// reassembly both depend on it, so a framing change fails loudly here.
const batchBodyPrefix = `{"decisions":[`

// splitBatchItems splits a backend batch response into its per-item
// JSON values, verbatim. It refuses any body encoding/json refuses, so
// an empty or malformed item is never spliced into a client's batch;
// over a valid body, a framing scanner that tracks only string/escape
// state and bracket depth finds the items, and each item's bytes pass
// through untouched. FuzzSplitBatchItems holds it to encoding/json.
func splitBatchItems(body []byte) ([][]byte, bool) {
	if !bytes.HasPrefix(body, []byte(batchBodyPrefix)) {
		return nil, false
	}
	rest := bytes.TrimSuffix(body[len(batchBodyPrefix):], []byte("\n"))
	if !bytes.HasSuffix(rest, []byte("]}")) || !json.Valid(body) {
		return nil, false
	}
	rest = rest[:len(rest)-2]
	if len(bytes.TrimLeft(rest, " \t\r\n")) == 0 {
		return nil, true
	}
	var items [][]byte
	depth, start := 0, 0
	inStr, esc := false, false
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth < 0 {
				return nil, false
			}
		case ',':
			if depth == 0 {
				items = append(items, rest[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 || inStr {
		return nil, false
	}
	return append(items, rest[start:]), true
}
