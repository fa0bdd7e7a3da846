// Package server is the placement service behind cmd/rtmserve: an HTTP
// front-end over racetrack.Lab designed around staying up — admission
// control with bounded queuing and load shedding, per-request deadlines
// that return best-so-far placements instead of hanging workers,
// request coalescing by trace fingerprint, a crash-safe persistent
// placement cache (internal/server/diskcache), per-request panic
// containment, and graceful draining. See DESIGN.md §13 for the
// failure-mode table.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	racetrack "repro"
	"repro/internal/server/diskcache"
	"repro/rtmclient"
)

// Config parameterizes a Server.
type Config struct {
	// Lab executes the placements. Required.
	Lab *racetrack.Lab
	// Cache, when non-nil, persists finished placements across restarts.
	Cache *diskcache.Cache
	// MaxConcurrent bounds concurrently executing placements (default:
	// GOMAXPROCS). MaxQueue bounds how many admitted requests may wait
	// for a slot before arrivals are shed (default 64).
	MaxConcurrent int
	MaxQueue      int
	// TenantCap bounds one tenant's running+queued requests (0 = no
	// per-tenant cap).
	TenantCap int
	// MaxDeadline is the server-side ceiling on a request's search
	// budget; a client asking for more (or for nothing) gets
	// min(request, MaxDeadline). Default 30s.
	MaxDeadline time.Duration
	// RetryAfter is the backoff hint attached to sheds and drain
	// rejections. Default 1s.
	RetryAfter time.Duration
	// DefaultDBCs is the DBC count used when a request leaves dbcs
	// unset; it participates in the coalescing/cache key. Default 4.
	DefaultDBCs int
	// Spin artificially lengthens every placement by sleeping inside the
	// admitted worker slot — a load-testing knob (cmd/rtmserve -spin) to
	// provoke queuing and shedding deterministically. 0 in production.
	Spin time.Duration
	// Log receives operational messages (nil = standard logger).
	Log *log.Logger
}

// Server is the placement service. Build with New, mount Handler, and
// on shutdown call BeginDrain + Drain.
type Server struct {
	cfg   Config
	adm   *admission
	group *flightGroup
	gate  *drainGate

	//rtmlint:ctxcheck-ok server-lifetime root for coalesced flights (DESIGN.md §13); cancelled exactly once at drain
	baseCtx    context.Context
	baseCancel context.CancelFunc

	m metrics
}

// metrics are the service counters exported by /statz.
type metrics struct {
	requests, badRequests, shed, deadline, canceled atomic.Int64
	ok, partial, cacheHits, coalesced, panics       atomic.Int64
	internalErrors                                  atomic.Int64
}

// New validates the config and builds the service.
func New(cfg Config) (*Server, error) {
	if cfg.Lab == nil {
		return nil, fmt.Errorf("server: Config.Lab is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("server: negative MaxQueue %d", cfg.MaxQueue)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DefaultDBCs <= 0 {
		cfg.DefaultDBCs = 4
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	//rtmlint:ctxcheck-ok the flight root is deliberately detached: a leader disconnect must not cancel followers (DESIGN.md §13)
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		adm:        newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.TenantCap),
		group:      newFlightGroup(ctx),
		gate:       &drainGate{},
		baseCtx:    ctx,
		baseCancel: cancel,
	}, nil
}

// Handler mounts the service endpoints: POST /v1/place, GET /healthz,
// GET /statz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/place", s.withRecovery(s.handlePlace))
	mux.HandleFunc("/healthz", s.withRecovery(s.handleHealth))
	mux.HandleFunc("/statz", s.withRecovery(s.handleStats))
	return mux
}

// withRecovery contains a per-request panic: the one request gets a 500
// and the server keeps serving. (net/http would also recover, but by
// killing the connection without a response.)
func (s *Server) withRecovery(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.m.panics.Add(1)
				s.cfg.Log.Printf("rtmserve: panic serving %s: %v", r.URL.Path, v)
				s.writeError(w, http.StatusInternalServerError, "internal error", 0)
			}
		}()
		h(w, r)
	}
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
		return
	}
	if !s.gate.enter() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", s.cfg.RetryAfter)
		return
	}
	defer s.gate.exit()

	body, err := readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength)
	if err != nil {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err), 0)
		return
	}
	req, err := decodePlaceRequest(body)
	if err != nil {
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	s.applyDefaults(req)
	model, err := s.resolveObjective(req)
	if err != nil {
		// The spec was syntax-checked at decode time, so a failure here
		// is a semantic mismatch with the effective options (e.g. a
		// derived objective on a DBC count with no Table I row) — still
		// the client's ask, still a 400.
		s.m.badRequests.Add(1)
		s.writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	objective := ""
	if model != nil {
		objective = model.Spec()
	}

	fp := req.seq.Fingerprint()
	key := diskcache.Key{
		Fingerprint: fp,
		Strategy:    string(req.strategy),
		Objective:   objective,
		DBCs:        req.dbcs,
		Capacity:    req.capacity,
		Ports:       req.ports,
	}

	// Warm path: a verified persistent-cache entry answers without
	// touching admission — a restart serves its working set immediately.
	if resp := s.fromCache(key, req, model); resp != nil {
		s.m.cacheHits.Add(1)
		s.m.ok.Add(1)
		s.writeJSON(w, http.StatusOK, resp)
		return
	}

	flightKey := fmt.Sprintf("%016x|%s|%s|%d|%d|%d", fp, req.strategy, objective, req.dbcs, req.capacity, req.ports)
	resp, err, shared := s.group.do(r.Context(), flightKey, func(fctx context.Context) (*rtmclient.PlaceResponse, error) {
		return s.compute(fctx, key, req)
	})
	if shared {
		s.m.coalesced.Add(1)
	}
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	if shared {
		// The flight result is shared; flag the copy, not the original.
		cp := *resp
		cp.Coalesced = true
		resp = &cp
	}
	if resp.Partial {
		s.m.partial.Add(1)
	}
	s.m.ok.Add(1)
	s.writeJSON(w, http.StatusOK, resp)
}

// applyDefaults resolves the request's effective options — they key the
// coalescing and the persistent cache, so "dbcs: 0" and "dbcs: 4" must
// be the same work item.
func (s *Server) applyDefaults(req *placeRequest) {
	if req.strategy == "" {
		req.strategy = racetrack.DMAOFU
	}
	if req.dbcs == 0 {
		req.dbcs = s.cfg.DefaultDBCs
	}
	if req.deadline <= 0 || req.deadline > s.cfg.MaxDeadline {
		req.deadline = s.cfg.MaxDeadline
	}
}

// resolveObjective builds the request's cost model (nil when no pricing
// was asked for). Its canonical Spec — not the raw request string — is
// the cache/coalescing key material, so "faulty:0.50" and "faulty:0.5"
// are the same work item.
func (s *Server) resolveObjective(req *placeRequest) (*racetrack.CostModel, error) {
	if req.objective == "" {
		return nil, nil
	}
	obj, rate, err := racetrack.ParseObjective(req.objective)
	if err != nil {
		return nil, err
	}
	if obj == racetrack.ObjectiveShifts {
		return racetrack.DefaultCostModel(), nil
	}
	params, err := racetrack.EnergyParams(req.dbcs)
	if err != nil {
		return nil, fmt.Errorf("objective %q: %v", req.objective, err)
	}
	return racetrack.NewCostModel(obj, params, rate)
}

// wireCost renders a priced cost for the response; spec is the
// canonical objective spec (the key material).
func wireCost(spec string, c *racetrack.Cost) *rtmclient.PlaceCost {
	if c == nil {
		return nil
	}
	return &rtmclient.PlaceCost{
		Objective:   spec,
		Shifts:      c.Shifts,
		Reads:       c.Reads,
		Writes:      c.Writes,
		FaultShifts: c.FaultShifts,
		RuntimeNS:   c.RuntimeNS,
		DynamicPJ:   c.DynamicPJ,
		LeakagePJ:   c.LeakagePJ,
		Scalar:      c.Scalar,
	}
}

// compute runs inside the (possibly shared) flight: admission, the
// deadline-bounded placement, and the cache write-back. A panic in a
// strategy is contained here — the flight goroutine must never crash
// the process — and surfaces as an internal error to every waiter.
func (s *Server) compute(fctx context.Context, key diskcache.Key, req *placeRequest) (resp *rtmclient.PlaceResponse, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.m.panics.Add(1)
			s.cfg.Log.Printf("rtmserve: panic in placement %016x/%s: %v", key.Fingerprint, key.Strategy, v)
			resp, err = nil, &panicError{fmt.Sprintf("%v", v)}
		}
	}()

	release, err := s.adm.admit(fctx, req.tenant)
	if err != nil {
		return nil, err
	}
	defer release()

	if s.cfg.Spin > 0 {
		t := time.NewTimer(s.cfg.Spin)
		select {
		case <-fctx.Done():
			t.Stop()
			return nil, fctx.Err()
		case <-t.C:
		}
	}

	ctx, cancel := context.WithTimeout(fctx, req.deadline)
	defer cancel()
	res, perr := s.cfg.Lab.Place(ctx, req.seq, racetrack.PlaceOptions{
		Strategy:  req.strategy,
		DBCs:      req.dbcs,
		Capacity:  req.capacity,
		Ports:     req.ports,
		Objective: key.Objective,
	})
	if res == nil {
		// No result at all: a failed strategy, or a deadline that
		// expired before any search state existed.
		return nil, perr
	}
	partial := perr != nil // deadline hit: best-so-far rides along

	resp = &rtmclient.PlaceResponse{
		Strategy:    string(req.strategy),
		DBCs:        req.dbcs,
		Fingerprint: fmt.Sprintf("%016x", key.Fingerprint),
		Shifts:      res.Shifts,
		PerDBC:      res.PerDBC,
		Placement:   namedPlacement(req.seq, res.Placement),
		Partial:     partial,
		Cost:        wireCost(key.Objective, res.Cost),
	}
	if !partial && s.cfg.Cache != nil {
		entry := &diskcache.Entry{Key: key, Shifts: res.Shifts, PerDBC: res.PerDBC, DBC: res.Placement.DBC}
		if werr := s.cfg.Cache.Put(entry); werr != nil {
			// Best-effort durability: a failed write-back costs warmth,
			// never the request.
			s.cfg.Log.Printf("rtmserve: cache write-back failed: %v", werr)
		}
	}
	return resp, nil
}

// fromCache serves a verified persistent-cache hit: the entry's
// checksum and key were verified by diskcache, and the placement is
// additionally validated against the actual sequence — a fingerprint
// collision (different trace, same fingerprint) fails validation and
// falls through to a rebuild that overwrites the entry.
func (s *Server) fromCache(key diskcache.Key, req *placeRequest, model *racetrack.CostModel) *rtmclient.PlaceResponse {
	if s.cfg.Cache == nil {
		return nil
	}
	e, ok := s.cfg.Cache.Get(key)
	if !ok {
		return nil
	}
	p := &racetrack.Placement{DBC: e.DBC}
	if err := p.Validate(req.seq, req.capacity); err != nil {
		s.cfg.Log.Printf("rtmserve: cache entry %016x/%s does not fit its trace (fingerprint collision?): %v",
			key.Fingerprint, key.Strategy, err)
		return nil
	}
	resp := &rtmclient.PlaceResponse{
		Strategy:    string(req.strategy),
		DBCs:        req.dbcs,
		Fingerprint: fmt.Sprintf("%016x", key.Fingerprint),
		Shifts:      e.Shifts,
		PerDBC:      e.PerDBC,
		Placement:   namedPlacement(req.seq, p),
		Cached:      true,
	}
	if model != nil {
		// Entries store the nominal result; pricing is deterministic
		// arithmetic over it, so a hit re-prices instead of persisting
		// derived floats (the key pinned the same objective).
		c := model.Price(racetrack.TallyOf(req.seq, e.Shifts))
		resp.Cost = wireCost(key.Objective, &c)
	}
	return resp
}

// namedPlacement renders a placement's DBC lists with the sequence's
// variable names.
func namedPlacement(seq *racetrack.Sequence, p *racetrack.Placement) [][]string {
	out := make([][]string, len(p.DBC))
	for i, d := range p.DBC {
		out[i] = make([]string, len(d))
		for j, v := range d {
			out[i][j] = seq.Name(v)
		}
	}
	return out
}

// panicError is a contained strategy panic, reported to every waiter of
// the flight as an internal error.
type panicError struct{ msg string }

func (e *panicError) Error() string { return "placement panicked: " + e.msg }

// writeFailure maps a flight error onto an HTTP status.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		s.m.shed.Add(1)
		s.writeError(w, http.StatusTooManyRequests, shed.Error(), s.cfg.RetryAfter)
	case errors.Is(err, context.DeadlineExceeded):
		s.m.deadline.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded before any placement existed", 0)
	case errors.Is(err, context.Canceled):
		// The client went away (or the drain cancelled the flight);
		// nobody meaningful is listening, but answer anyway.
		s.m.canceled.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "request cancelled", s.cfg.RetryAfter)
	default:
		s.m.internalErrors.Add(1)
		s.writeError(w, http.StatusInternalServerError, err.Error(), 0)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.gate.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", s.cfg.RetryAfter)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Stats is the /statz payload.
type Stats struct {
	Requests    int64 `json:"requests"`
	OK          int64 `json:"ok"`
	Partial     int64 `json:"partial"`
	BadRequests int64 `json:"bad_requests"`
	Shed        int64 `json:"shed"`
	Deadline    int64 `json:"deadline"`
	Canceled    int64 `json:"canceled"`
	Coalesced   int64 `json:"coalesced"`
	CacheServed int64 `json:"cache_served"`
	Panics      int64 `json:"panics"`
	Internal    int64 `json:"internal_errors"`

	Running int64 `json:"running"`
	Queued  int64 `json:"queued"`

	KernelCacheHits   int64 `json:"kernel_cache_hits"`
	KernelCacheMisses int64 `json:"kernel_cache_misses"`

	DiskCache *diskcache.Stats `json:"disk_cache,omitempty"`
}

func (s *Server) stats() Stats {
	running, queued := s.adm.load()
	kh, km := s.cfg.Lab.KernelCacheStats()
	st := Stats{
		Requests:    s.m.requests.Load(),
		OK:          s.m.ok.Load(),
		Partial:     s.m.partial.Load(),
		BadRequests: s.m.badRequests.Load(),
		Shed:        s.m.shed.Load(),
		Deadline:    s.m.deadline.Load(),
		Canceled:    s.m.canceled.Load(),
		Coalesced:   s.m.coalesced.Load(),
		CacheServed: s.m.cacheHits.Load(),
		Panics:      s.m.panics.Load(),
		Internal:    s.m.internalErrors.Load(),

		Running: int64(running),
		Queued:  int64(queued),

		KernelCacheHits:   kh,
		KernelCacheMisses: km,
	}
	if s.cfg.Cache != nil {
		dc := s.cfg.Cache.Stats()
		st.DiskCache = &dc
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.stats())
}

// BeginDrain stops admitting new requests: /v1/place answers 503 with a
// Retry-After, /healthz flips unhealthy so balancers steer away.
// In-flight requests keep running.
func (s *Server) BeginDrain() { s.gate.beginDrain() }

// Drain completes a graceful shutdown: BeginDrain, wait for every
// in-flight request and flight to finish (bounded by ctx), then flush
// the persistent cache. On ctx expiry the remaining flights are
// cancelled (their searches return best-so-far to their waiters) and
// ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	idle := s.gate.beginDrain()
	select {
	case <-idle:
	case <-ctx.Done():
		s.baseCancel()
		return ctx.Err()
	}
	s.group.wait()
	s.baseCancel()
	if s.cfg.Cache != nil {
		if err := s.cfg.Cache.Flush(); err != nil {
			return fmt.Errorf("server: flushing cache: %w", err)
		}
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.cfg.Log.Printf("rtmserve: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	s.writeJSON(w, code, rtmclient.ErrorResponse{Error: msg})
}

// drainGate tracks in-flight requests and refuses new ones once
// draining. It replaces a bare WaitGroup because enters race drains: a
// WaitGroup forbids Add concurrent with Wait at zero, the gate makes
// the same situation a clean refusal.
type drainGate struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{}
	closed   bool
}

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

func (g *drainGate) exit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	g.maybeIdle()
}

func (g *drainGate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// beginDrain flips the gate and returns a channel closed when the last
// in-flight request exits (immediately if none are in flight).
func (g *drainGate) beginDrain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	g.maybeIdle()
	return g.idle
}

func (g *drainGate) maybeIdle() {
	if g.draining && g.n == 0 && g.idle != nil && !g.closed {
		close(g.idle)
		g.closed = true
	}
}
