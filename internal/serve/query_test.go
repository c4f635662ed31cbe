package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	farmer "repro"
	"repro/internal/serve"
)

// query posts spec to /v1/query with optional extra headers and returns
// the full response (body drained and closed).
func query(t *testing.T, baseURL string, spec serve.JobSpec, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/query", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestQueryWarmReplayBytesAndHeaders is the warm-path golden check: a
// repeat query must return byte-identical NDJSON to both the live first
// run and the jobs-path stream, with the zero-copy replay headers —
// explicit Content-Length (no chunked transfer), X-Cache: HIT, and a
// strong ETag.
func TestQueryWarmReplayBytesAndHeaders(t *testing.T) {
	ts, _ := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	spec := serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2, LowerBounds: true}

	want := expectedFarmerLines(t, loadExample(t), 0, farmer.MineOptions{
		MinSup:             spec.MinSup,
		ComputeLowerBounds: spec.LowerBounds,
	})
	wantBody := strings.Join(want, "\n") + "\n" + endFrameLine(len(want)) + "\n"

	cold, coldBody := query(t, ts.URL, spec, nil)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold query: status %d", cold.StatusCode)
	}
	if got := cold.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("cold query X-Cache = %q, want MISS", got)
	}
	if string(coldBody) != wantBody {
		t.Fatalf("cold query body mismatch:\n got %q\nwant %q", coldBody, wantBody)
	}

	warm, warmBody := query(t, ts.URL, spec, nil)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm query: status %d", warm.StatusCode)
	}
	if string(warmBody) != wantBody {
		t.Fatalf("warm query body differs from the live stream:\n got %q\nwant %q", warmBody, wantBody)
	}
	if got := warm.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("warm query X-Cache = %q, want HIT", got)
	}
	if ct := warm.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("warm query content-type %q", ct)
	}
	if cl := warm.Header.Get("Content-Length"); cl != strconv.Itoa(len(wantBody)) {
		t.Fatalf("warm query Content-Length = %q, want %d", cl, len(wantBody))
	}
	if len(warm.TransferEncoding) != 0 {
		t.Fatalf("warm query used transfer encoding %v; replay must not chunk", warm.TransferEncoding)
	}
	etag := warm.Header.Get("ETag")
	if len(etag) != 66 || etag[0] != '"' {
		t.Fatalf("warm query ETag = %q, want a quoted 64-hex strong validator", etag)
	}

	// The jobs path serves the same bytes for a cached submission, with the
	// same replay headers and the cached flag on its status.
	st := submit(t, ts.URL, spec)
	if !st.Cached {
		t.Fatal("repeat submission not served from the result cache")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	jobBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(jobBody) != wantBody {
		t.Fatalf("jobs-path cached replay differs from query body:\n got %q\nwant %q", jobBody, wantBody)
	}
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("cached job results X-Cache = %q, want HIT", got)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(wantBody)) {
		t.Fatalf("cached job results Content-Length = %q, want %d", cl, len(wantBody))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("jobs-path ETag %q differs from query ETag %q", got, etag)
	}
}

func TestQueryETagStableAcrossHitsRotatesOnPut(t *testing.T) {
	ts, _ := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	spec := serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2}

	// The cold miss streams live and carries no validator; every replay of
	// the completed result must present the same strong ETag.
	query(t, ts.URL, spec, nil)
	first, _ := query(t, ts.URL, spec, nil)
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("warm replay carries no ETag")
	}
	for i := 0; i < 3; i++ {
		resp, _ := query(t, ts.URL, spec, nil)
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("hit %d: ETag %q, want stable %q", i, got, etag)
		}
	}

	// Re-registering the dataset bumps the generation: the same spec is a
	// new request identity, so the validator must rotate and the response
	// must be a fresh mine, not a stale replay.
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	resp, body := query(t, ts.URL, spec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-Put query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-Put query X-Cache = %q, want MISS", got)
	}
	if len(body) == 0 {
		t.Fatal("post-Put query returned no body")
	}
	if got := resp.Header.Get("ETag"); got == etag && got != "" {
		t.Fatalf("ETag %q did not rotate after dataset re-registration", got)
	}
}

// Unbudgeted top-k under the default, "exact" and "best_first" spellings
// is one run: the three share one cache entry and one ETag.
func TestQueryTopKStrategySpellingsShareCacheEntry(t *testing.T) {
	ts, _ := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	spec := serve.JobSpec{Miner: "topk", Dataset: "paper", K: 3}

	cold, coldBody := query(t, ts.URL, spec, nil)
	if cold.StatusCode != http.StatusOK || cold.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("cold query: status %d, X-Cache %q", cold.StatusCode, cold.Header.Get("X-Cache"))
	}
	warm, _ := query(t, ts.URL, spec, nil)
	etag := warm.Header.Get("ETag")
	if etag == "" {
		t.Fatal("warm replay carries no ETag")
	}
	for _, quality := range []string{"exact", "best_first"} {
		spelled := spec
		spelled.Quality = quality
		resp, body := query(t, ts.URL, spelled, nil)
		if got := resp.Header.Get("X-Cache"); got != "HIT" {
			t.Fatalf("quality %q: X-Cache %q, want a HIT on the default spelling's entry", quality, got)
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("quality %q: ETag %q, want %q", quality, got, etag)
		}
		if !bytes.Equal(body, coldBody) {
			t.Fatalf("quality %q: body differs from the cold run:\n got %q\nwant %q", quality, body, coldBody)
		}
		resp, _ = query(t, ts.URL, spelled, map[string]string{"If-None-Match": etag})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("quality %q with the default spelling's ETag: status %d, want 304", quality, resp.StatusCode)
		}
	}
}

func TestQueryConditionalRequests(t *testing.T) {
	ts, _ := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	spec := serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2}

	warm, fullBody := query(t, ts.URL, spec, nil) // prime the cache
	warm, fullBody = query(t, ts.URL, spec, nil)
	etag := warm.Header.Get("ETag")
	if etag == "" || len(fullBody) == 0 {
		t.Fatalf("warm query: etag %q, %d body bytes", etag, len(fullBody))
	}

	// A matching validator answers 304 with no body.
	resp, body := query(t, ts.URL, spec, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match match: status %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}

	// So do a list and a star.
	for _, inm := range []string{`"nope", ` + etag, "*", "W/" + etag} {
		resp, body := query(t, ts.URL, spec, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %q: status %d, %d bytes; want bare 304", inm, resp.StatusCode, len(body))
		}
	}

	// A stale validator gets the full current body.
	resp, body = query(t, ts.URL, spec, map[string]string{"If-None-Match": `"0000"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(body, fullBody) {
		t.Fatal("stale If-None-Match did not return the full body")
	}
}

// TestQueryConcurrentWarmHits hammers the warm path from many goroutines
// across distinct specs, interleaving conditional requests — under -race
// this is the proof that pooled buffers and the shared pre-encoded bodies
// never bleed across requests.
func TestQueryConcurrentWarmHits(t *testing.T) {
	ts, _ := service(t, 2, 16)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)

	specs := []serve.JobSpec{
		{Miner: "farmer", Dataset: "paper", MinSup: 1},
		{Miner: "farmer", Dataset: "paper", MinSup: 2},
		{Miner: "farmer", Dataset: "paper", MinSup: 2, LowerBounds: true},
		{Miner: "charm", Dataset: "paper", MinSup: 2},
	}
	bodies := make([][]byte, len(specs))
	etags := make([]string, len(specs))
	for i, spec := range specs {
		query(t, ts.URL, spec, nil) // prime
		resp, body := query(t, ts.URL, spec, nil)
		if resp.Header.Get("X-Cache") != "HIT" {
			t.Fatalf("spec %d not warmed", i)
		}
		bodies[i], etags[i] = body, resp.Header.Get("ETag")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				i := (g + iter) % len(specs)
				if iter%5 == 4 {
					resp, body := query(t, ts.URL, specs[i], map[string]string{"If-None-Match": etags[i]})
					if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
						errs <- fmt.Errorf("goroutine %d: conditional hit spec %d: status %d, %d bytes", g, i, resp.StatusCode, len(body))
						return
					}
					continue
				}
				resp, body := query(t, ts.URL, specs[i], nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: spec %d: status %d", g, i, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, bodies[i]) {
					errs <- fmt.Errorf("goroutine %d: spec %d: body corrupted across requests", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// nullResponseWriter is the cheapest possible sink for measuring the
// handler's own allocations: a reusable header map and discarded writes.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestQueryWarmHandlerAllocs bounds the warm handler's allocations,
// measured through the full middleware + mux + handler stack with the
// net/http transport taken out of the picture. The acceptance bar for the
// end-to-end request is 100 allocs/op; the handler itself must stay well
// under that.
func TestQueryWarmHandlerAllocs(t *testing.T) {
	ts, mgr := service(t, 2, 8)
	put(t, ts.URL+"/v1/datasets/paper", paperExample)
	spec := serve.JobSpec{Miner: "farmer", Dataset: "paper", MinSup: 2}
	if resp, _ := query(t, ts.URL, spec, nil); resp.StatusCode != http.StatusOK {
		t.Fatal("priming query failed")
	}

	srv := serve.NewServer(mgr)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	req, err := http.NewRequest(http.MethodPost, "/v1/query", io.NopCloser(rd))
	if err != nil {
		t.Fatal(err)
	}
	w := &nullResponseWriter{h: make(http.Header)}

	// One warm-up run populates lazy state (pools, mux fast paths), then
	// the measured runs must be flat.
	rd.Reset(body)
	srv.ServeHTTP(w, req)
	if got := w.h.Get("X-Cache"); got != "HIT" {
		t.Fatalf("measured request was not a cache hit (X-Cache=%q)", got)
	}

	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		srv.ServeHTTP(w, req)
	})
	t.Logf("warm handler: %.1f allocs/op", allocs)
	if allocs > 50 {
		t.Fatalf("warm handler allocates %.1f/op, want <= 50", allocs)
	}
}
