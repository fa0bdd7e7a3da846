package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	racetrack "repro"
	"repro/internal/placement"
	"repro/internal/server/diskcache"
	"repro/rtmclient"
)

// testRegistry resolves the tests' strategy names: a fresh registry
// seeded with the builtins.
var testRegistry = func() *placement.Registry {
	reg, err := placement.NewRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}()

// newTestServer builds a Server over a fresh Lab (plus any custom
// strategies) and mounts it on an httptest server.
func newTestServer(t *testing.T, cfg Config, strategies ...racetrack.Option) (*Server, *httptest.Server) {
	t.Helper()
	lab, err := racetrack.New(strategies...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lab = lab
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post submits one /v1/place body and returns the status, headers and
// decoded response (place or error).
func post(t *testing.T, url string, body string) (int, http.Header, *rtmclient.PlaceResponse, *rtmclient.ErrorResponse) {
	t.Helper()
	res, err := http.Post(url+"/v1/place", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if res.StatusCode == http.StatusOK {
		out := &rtmclient.PlaceResponse{}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding 200 body %q: %v", raw, err)
		}
		return res.StatusCode, res.Header, out, nil
	}
	er := &rtmclient.ErrorResponse{}
	if err := json.Unmarshal(raw, er); err != nil {
		t.Fatalf("decoding %d body %q: %v", res.StatusCode, raw, err)
	}
	return res.StatusCode, res.Header, nil, er
}

func placeBody(trace, strategy string, extra string) string {
	b := fmt.Sprintf(`{"trace":%q`, trace)
	if strategy != "" {
		b += fmt.Sprintf(`,"strategy":%q`, strategy)
	}
	return b + extra + `}`
}

// TestOverloadShedsWith429 floods a 1-slot, 1-queue server with
// distinct traces: the overflow must be shed immediately with 429 and a
// Retry-After hint, while every accepted request completes normally.
func TestOverloadShedsWith429(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		Spin:          300 * time.Millisecond,
		RetryAfter:    2 * time.Second,
	})

	const n = 8
	type outcome struct {
		code  int
		hdr   http.Header
		place *rtmclient.PlaceResponse
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, pr, _ := post(t, ts.URL, placeBody(fmt.Sprintf("a b a b uniq%d", i), "", ""))
			out[i] = outcome{code, hdr, pr}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, o := range out {
		switch o.code {
		case http.StatusOK:
			ok++
			if o.place.Shifts < 0 || len(o.place.Placement) == 0 {
				t.Errorf("request %d: accepted but result is empty: %+v", i, o.place)
			}
		case http.StatusTooManyRequests:
			shed++
			if ra := o.hdr.Get("Retry-After"); ra != "2" {
				t.Errorf("request %d: shed without Retry-After hint (got %q)", i, ra)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, o.code)
		}
	}
	if ok < 2 || shed < 1 || ok+shed != n {
		t.Fatalf("ok=%d shed=%d of %d: want >=2 accepted (slot+queue), >=1 shed, none lost", ok, shed, n)
	}
}

// TestCoalescing submits identical concurrent requests and asserts the
// strategy ran exactly once — the others shared the flight.
func TestCoalescing(t *testing.T) {
	var calls atomic.Int64
	slow := func(s *racetrack.Sequence, q int, opts racetrack.StrategyOptions) (*racetrack.Placement, int64, error) {
		calls.Add(1)
		select {
		case <-opts.Context.Done():
			return nil, 0, opts.Context.Err()
		case <-time.After(150 * time.Millisecond):
		}
		return testRegistry.Place(placement.StrategyDMAOFU, s, q, placement.Options{Capacity: opts.Capacity})
	}
	_, ts := newTestServer(t, Config{MaxConcurrent: 4, MaxQueue: 16},
		racetrack.WithStrategy("slowcount", slow))

	const n = 6
	body := placeBody("a b a b c a c a", "slowcount", "")
	codes := make([]int, n)
	places := make([]*rtmclient.PlaceResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, places[i], _ = post(t, ts.URL, body)
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if places[i].Shifts != places[0].Shifts || places[i].Fingerprint != places[0].Fingerprint {
			t.Fatalf("request %d: diverging result %+v vs %+v", i, places[i], places[0])
		}
		if places[i].Coalesced {
			coalesced++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("strategy ran %d times for %d identical concurrent requests, want exactly 1", got, n)
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced=%d, want %d (all but the flight leader)", coalesced, n-1)
	}
}

// TestPanicContained sends a request whose strategy panics: that one
// request gets a 500 and the server keeps serving.
func TestPanicContained(t *testing.T) {
	boom := func(s *racetrack.Sequence, q int, opts racetrack.StrategyOptions) (*racetrack.Placement, int64, error) {
		panic("strategy exploded")
	}
	srv, ts := newTestServer(t, Config{}, racetrack.WithStrategy("panicker", boom))

	code, _, _, er := post(t, ts.URL, placeBody("a b a b", "panicker", ""))
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking strategy: status %d, want 500", code)
	}
	if er == nil || er.Error == "" {
		t.Fatal("panicking strategy: no error body")
	}
	// The server survived; a normal request still works.
	code, _, pr, _ := post(t, ts.URL, placeBody("a b a b", "", ""))
	if code != http.StatusOK || pr == nil {
		t.Fatalf("request after panic: status %d, want 200", code)
	}
	if got := srv.stats().Panics; got != 1 {
		t.Fatalf("stats.Panics = %d, want 1", got)
	}
}

// TestDeadlinePartial asks for a deadline shorter than the strategy
// needs: the response carries the best-so-far placement with Partial
// set, and the partial result is NOT written to the persistent cache.
func TestDeadlinePartial(t *testing.T) {
	blocker := func(s *racetrack.Sequence, q int, opts racetrack.StrategyOptions) (*racetrack.Placement, int64, error) {
		p, c, err := testRegistry.Place(placement.StrategyDMAOFU, s, q, placement.Options{Capacity: opts.Capacity})
		if err != nil {
			return nil, 0, err
		}
		<-opts.Context.Done() // hold the best-so-far until the deadline
		return p, c, opts.Context.Err()
	}
	cache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache},
		racetrack.WithStrategy("blocker", blocker))

	for round := 0; round < 2; round++ {
		code, _, pr, _ := post(t, ts.URL, placeBody("a b a b c a c a", "blocker", `,"deadline_ms":100`))
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d, want 200 with partial result", round, code)
		}
		if !pr.Partial {
			t.Fatalf("round %d: response not marked partial: %+v", round, pr)
		}
		if pr.Cached {
			t.Fatalf("round %d: partial result was served from cache — partials must not be cached", round)
		}
		if pr.Shifts <= 0 || len(pr.Placement) == 0 {
			t.Fatalf("round %d: partial without a usable placement: %+v", round, pr)
		}
	}
	if st := cache.Stats(); st.Writes != 0 {
		t.Fatalf("cache writes = %d, want 0 (partials are not durable)", st.Writes)
	}
}

// TestCacheRoundTripThroughServer pins the warm path: the second
// identical request is served from the persistent cache with the same
// result.
func TestCacheRoundTripThroughServer(t *testing.T) {
	cache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache})

	body := placeBody("a b a b c a c a d d a", "", "")
	code, _, first, _ := post(t, ts.URL, body)
	if code != http.StatusOK || first.Cached {
		t.Fatalf("first request: code=%d cached=%v, want cold 200", code, first.Cached)
	}
	code, _, second, _ := post(t, ts.URL, body)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second request: code=%d cached=%v, want warm 200", code, second.Cached)
	}
	if second.Shifts != first.Shifts || second.Fingerprint != first.Fingerprint {
		t.Fatalf("cache served a different result: %+v vs %+v", second, first)
	}
}

// TestObjectiveCacheIdentity pins the cost objective as cache key
// material: a layout cached under one objective must not answer a
// request for another (the response would be missing or carrying the
// wrong cost dimensions), equivalent specs must share one entry, and
// priced hits must carry the same cost a cold compute produces.
func TestObjectiveCacheIdentity(t *testing.T) {
	cache, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Cache: cache})
	trace := "a b a b c a c a d d a"

	code, _, plain, _ := post(t, ts.URL, placeBody(trace, "", ""))
	if code != http.StatusOK || plain.Cached || plain.Cost != nil {
		t.Fatalf("cold unpriced request: code=%d %+v", code, plain)
	}
	// Same trace, different objective: the unpriced entry must not be
	// served — this request needs a cost the entry never had.
	code, _, priced, _ := post(t, ts.URL, placeBody(trace, "", `,"objective":"energy"`))
	if code != http.StatusOK || priced.Cached {
		t.Fatalf("objective change served a stale cache entry: code=%d %+v", code, priced)
	}
	if priced.Cost == nil || priced.Cost.Objective != "energy" || priced.Cost.Scalar <= 0 {
		t.Fatalf("priced response without cost: %+v", priced.Cost)
	}
	if priced.Shifts != plain.Shifts {
		t.Fatalf("objective changed the placement: %d vs %d shifts", priced.Shifts, plain.Shifts)
	}
	// Same objective again: now warm, and the re-priced hit must match
	// the cold compute bit for bit.
	code, _, warm, _ := post(t, ts.URL, placeBody(trace, "", `,"objective":"energy"`))
	if code != http.StatusOK || !warm.Cached {
		t.Fatalf("identical priced request missed the cache: code=%d %+v", code, warm)
	}
	if warm.Cost == nil || *warm.Cost != *priced.Cost {
		t.Fatalf("cache hit re-priced differently: %+v vs %+v", warm.Cost, priced.Cost)
	}
	// Canonicalization: "faulty:0.50" and "faulty:0.5" are one work item.
	code, _, f1, _ := post(t, ts.URL, placeBody(trace, "", `,"objective":"faulty:0.50"`))
	if code != http.StatusOK || f1.Cached {
		t.Fatalf("cold faulty request: code=%d %+v", code, f1)
	}
	code, _, f2, _ := post(t, ts.URL, placeBody(trace, "", `,"objective":"faulty:0.5"`))
	if code != http.StatusOK || !f2.Cached {
		t.Fatalf("equivalent faulty spec missed the cache: code=%d %+v", code, f2)
	}
	if f2.Cost == nil || f2.Cost.Objective != "faulty:0.5" || *f2.Cost != *f1.Cost {
		t.Fatalf("canonicalized specs priced differently: %+v vs %+v", f2.Cost, f1.Cost)
	}
}

// TestDrain verifies graceful shutdown: draining refuses new work with
// 503 + Retry-After, lets the in-flight request finish, and Drain
// returns once idle.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		MaxConcurrent: 2,
		Spin:          200 * time.Millisecond,
		RetryAfter:    time.Second,
	})

	type result struct {
		code int
		pr   *rtmclient.PlaceResponse
	}
	inflight := make(chan result, 1)
	go func() {
		code, _, pr, _ := post(t, ts.URL, placeBody("a b a b inflight", "", ""))
		inflight <- result{code, pr}
	}()
	time.Sleep(50 * time.Millisecond) // let it get admitted
	srv.BeginDrain()

	code, hdr, _, _ := post(t, ts.URL, placeBody("a b a b late", "", ""))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("drain rejection without Retry-After")
	}
	if hres, err := http.Get(ts.URL + "/healthz"); err != nil || hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %v %v, want 503", hres, err)
	}

	got := <-inflight
	if got.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200 (drain must not kill it)", got.code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestBadRequests pins the untrusted boundary: malformed bodies are 4xx
// client errors, never 500s and never panics.
func TestBadRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `{"trace"`},
		{"wrong type", `{"trace":42}`},
		{"unknown field", `{"trace":"a b","nope":1}`},
		{"trailing data", `{"trace":"a b"} extra`},
		{"empty trace", `{"trace":""}`},
		{"negative dbcs", `{"trace":"a b","dbcs":-1}`},
		{"huge dbcs", `{"trace":"a b","dbcs":1000000}`},
		{"negative deadline", `{"trace":"a b","deadline_ms":-5}`},
		{"unknown strategy", `{"trace":"a b","strategy":"no-such"}`},
		{"unknown objective", `{"trace":"a b","objective":"watts"}`},
		{"fault rate 1", `{"trace":"a b","objective":"faulty:1"}`},
		{"objective without Table I row", `{"trace":"a b","dbcs":3,"objective":"energy"}`},
	}
	for _, tc := range cases {
		code, _, _, er := post(t, ts.URL, tc.body)
		if tc.name == "unknown strategy" {
			// Resolved at placement time, not decode time: an internal
			// error class is acceptable, a panic is not.
			if code != http.StatusBadRequest && code != http.StatusInternalServerError {
				t.Errorf("%s: status %d", tc.name, code)
			}
			continue
		}
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if er == nil || er.Error == "" {
			t.Errorf("%s: missing error body", tc.name)
		}
	}
	if res, err := http.Get(ts.URL + "/v1/place"); err != nil || res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/place: %v %v, want 405", res, err)
	}
	if got := srv.stats().Panics; got != 0 {
		t.Fatalf("bad requests caused %d panics", got)
	}
}

// TestStatz sanity-checks the observability endpoint.
func TestStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, placeBody("a b a b", "", ""))
	res, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var st Stats
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatalf("decoding statz: %v", err)
	}
	if st.Requests < 1 || st.OK < 1 {
		t.Fatalf("statz after one request: %+v", st)
	}
}

// TestReadBody reads bodies whose declared length is right, unknown,
// short, long and larger than the first buffer may be.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("a b! c ", 20000) // longer than firstBodyBuffer
	for _, length := range []int64{int64(len(body)), -1, 0, 10, MaxBodyBytes} {
		got, err := readBody(strings.NewReader(body), length)
		if err != nil || string(got) != body {
			t.Errorf("length %d: read %d bytes, err %v; want %d", length, len(got), err, len(body))
		}
	}
	got, err := readBody(strings.NewReader("short"), MaxBodyBytes)
	if err != nil || string(got) != "short" || cap(got) > firstBodyBuffer+1 {
		t.Errorf("declared %d for 5 bytes: %q (cap %d), %v", MaxBodyBytes, got, cap(got), err)
	}
}
