package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// reqKey is the canonical request hash a result is cached and coalesced
// under, in its binary form. Using the raw [32]byte as the map key keeps
// warm-path lookups allocation-free; the hex rendering clients see (the
// ETag) is materialized once per cache entry, not once per request.
type reqKey [32]byte

// keyBufPool recycles the scratch buffer requestKey renders the spec
// fields into before hashing, so steady-state warm traffic computes its
// request hash without a single heap allocation.
var keyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// requestKey is the canonical request hash a result is cached and
// coalesced under: the miner, the dataset's registration generation, and
// every result-affecting option, hashed over an unambiguous field-per-line
// rendering. The generation — not the dataset name — keys the data, so
// re-registering a name invalidates all of its cached results implicitly:
// their keys can simply never be asked for again, and the entries age out
// of the LRU. TimeoutMS participates because it changes what a run may
// produce (a timed-out job is never cached, but two live submissions with
// different deadlines must not coalesce into one run with the wrong one).
func requestKey(spec JobSpec, gen uint64) reqKey {
	bp := keyBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, "miner="...)
	b = append(b, spec.Miner...)
	b = append(b, "\ngen="...)
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, "\nclass="...)
	b = append(b, spec.Class...)
	b = append(b, "\nminsup="...)
	b = strconv.AppendInt(b, int64(spec.MinSup), 10)
	b = append(b, "\nminconf="...)
	b = strconv.AppendFloat(b, spec.MinConf, 'g', -1, 64)
	b = append(b, "\nminchi="...)
	b = strconv.AppendFloat(b, spec.MinChi, 'g', -1, 64)
	b = append(b, "\nlb="...)
	b = strconv.AppendBool(b, spec.LowerBounds)
	b = append(b, "\nk="...)
	b = strconv.AppendInt(b, int64(spec.K), 10)
	b = append(b, "\nmeasure="...)
	b = append(b, spec.Measure...)
	b = append(b, "\nworkers="...)
	b = strconv.AppendInt(b, int64(spec.Workers), 10)
	b = append(b, "\ntimeout="...)
	b = strconv.AppendInt(b, spec.TimeoutMS, 10)
	b = append(b, "\nmaxms="...)
	b = strconv.AppendInt(b, spec.MaxMillis, 10)
	b = append(b, "\nmaxnodes="...)
	b = strconv.AppendInt(b, spec.MaxNodes, 10)
	b = append(b, "\nquality="...)
	b = append(b, spec.Quality...)
	b = append(b, "\ndelta="...)
	b = strconv.AppendFloat(b, spec.Delta, 'g', -1, 64)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	*bp = b
	keyBufPool.Put(bp)
	return sum
}

// etagFor renders the strong ETag for a request key. The key already
// folds in the registry generation, so a re-registration rotates the ETag
// of every request against that dataset automatically.
func etagFor(key reqKey) string {
	return `"` + hex.EncodeToString(key[:]) + `"`
}

// canonicalSpec normalizes the fields buildRunner would normalize anyway
// (MinSup and K floors, the default measure and strategy names), so
// equivalent requests share one key.
func canonicalSpec(spec JobSpec) JobSpec {
	if spec.MinSup < 1 {
		spec.MinSup = 1
	}
	if spec.Miner == "topk" {
		if spec.K < 1 {
			spec.K = 1
		}
		if spec.Measure == "" {
			spec.Measure = "chi2"
		}
		// "exact" is the parse default of the empty string, and unbudgeted
		// "best_first" is the same exhaustive run; fold the three spellings
		// into one key so they coalesce and share one cache entry.
		if spec.Quality == "exact" || (spec.Quality == "best_first" && !spec.Budgeted()) {
			spec.Quality = ""
		}
	}
	return spec
}

// cachedResult is one finished job's replayable outcome: the complete
// NDJSON body exactly as the live stream wrote it — every record followed
// by '\n', pre-encoded into a single contiguous buffer so a warm replay is
// one header write and one body write — plus the record count, the final
// statistics, and the pre-rendered ETag.
type cachedResult struct {
	body     []byte
	count    int
	stats    engine.Stats
	hasStats bool
	etag     string
}

// encodeBody flattens the records of a completed run into the cached
// NDJSON body. The result is byte-identical to what the live stream wrote:
// each record followed by a newline. It is non-nil even for zero records,
// because a non-nil body is what marks a job replayable.
func encodeBody(records []json.RawMessage) []byte {
	total := 0
	for _, rec := range records {
		total += len(rec) + 1
	}
	body := make([]byte, 0, total)
	for _, rec := range records {
		body = append(body, rec...)
		body = append(body, '\n')
	}
	return body
}

// cacheEntryOverhead approximates the per-entry bookkeeping (list element,
// map entry, key, ETag, headers) counted against the byte bound, so a
// flood of tiny results cannot blow past the configured memory budget on
// overhead alone.
const cacheEntryOverhead = 256

func (r cachedResult) size() int64 {
	return int64(cacheEntryOverhead) + int64(len(r.body)) + int64(len(r.etag))
}

// resultCache is a byte-bounded LRU over cachedResults keyed by request
// key. A nil *resultCache is a valid, always-missing cache (caching
// disabled).
type resultCache struct {
	// hits and misses are lifetime lookup totals for /metrics; atomics so
	// the scrape never takes the cache lock.
	hits   atomic.Int64
	misses atomic.Int64

	mu    sync.Mutex
	max   int64
	cur   int64
	order *list.List // front = most recently used; values are *cacheItem
	byKey map[reqKey]*list.Element
}

type cacheItem struct {
	key   reqKey
	res   cachedResult
	bytes int64
}

func newResultCache(maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		return nil
	}
	return &resultCache{max: maxBytes, order: list.New(), byKey: make(map[reqKey]*list.Element)}
}

// get returns the cached result for key, marking it most recently used.
func (c *resultCache) get(key reqKey) (cachedResult, bool) {
	if c == nil {
		return cachedResult{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return cachedResult{}, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// counters reports lifetime hit/miss totals (zeros when disabled).
func (c *resultCache) counters() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// put inserts (or refreshes) key, evicting least-recently-used entries
// until the byte bound holds again. Results larger than the whole bound
// are not cached at all.
func (c *resultCache) put(key reqKey, res cachedResult) {
	if c == nil {
		return
	}
	n := res.size()
	if n > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		item := el.Value.(*cacheItem)
		c.cur += n - item.bytes
		item.res, item.bytes = res, n
		c.order.MoveToFront(el)
	} else {
		c.byKey[key] = c.order.PushFront(&cacheItem{key: key, res: res, bytes: n})
		c.cur += n
	}
	for c.cur > c.max {
		el := c.order.Back()
		if el == nil {
			break
		}
		item := c.order.Remove(el).(*cacheItem)
		delete(c.byKey, item.key)
		c.cur -= item.bytes
	}
}

// bytes reports the current cached size (for tests and introspection).
func (c *resultCache) bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}
