package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	racetrack "repro"
	"repro/internal/placement"
	"repro/internal/server"
	"repro/rtmclient"
)

// The serve workload's request mix: every OffsetStone sequence with each
// of three strategies at 4 DBCs, priced for energy. Each key is sent
// once cold and warmRepeats times warm in every round.
//
// The server runs without its persistent placement cache: every cold
// request would fsync a cache entry to the disk holding the checkout,
// and on a shared disk that measured the disk, not the service (see
// README.md). A warm request therefore repeats its key's placement,
// with the Lab's kernel cache as the only warm state.
const (
	serveDBCs      = 4
	serveObjective = "energy"
	serveClients   = 2
	warmRepeats    = 3
)

var serveStrategies = []racetrack.Strategy{racetrack.DMAOFU, racetrack.DMASR, racetrack.DMA2Opt}

// serveKey is one distinct request.
type serveKey struct {
	name     string
	seq      *racetrack.Sequence
	strategy racetrack.Strategy
	body     []byte
}

// serveWorkload drives the placement service over loopback HTTP with a
// closed loop of two clients. Every round starts a fresh server and Lab,
// so each key's first request in a round is cold.
type serveWorkload struct {
	scale float64
	keys  []serveKey
	reg   *placement.Registry
	first []*rtmclient.PlaceResponse // first round's cold answers, for verify
}

func (w *serveWorkload) setup(ctx context.Context, dir string) error {
	benches, err := offsetStone(scaledCount(31, w.scale))
	if err != nil {
		return err
	}
	w.keys = w.keys[:0]
	for _, b := range benches {
		for i, s := range b.Sequences {
			text := sequenceText(s)
			for _, st := range serveStrategies {
				body, err := json.Marshal(rtmclient.PlaceRequest{Trace: text, Strategy: string(st), DBCs: serveDBCs, Objective: serveObjective})
				if err != nil {
					return err
				}
				w.keys = append(w.keys, serveKey{name: fmt.Sprintf("%s/%d/%s", b.Name, i, st), seq: s, strategy: st, body: body})
			}
		}
	}
	if w.reg, err = placement.NewRegistry(); err != nil {
		return err
	}
	// Warm-up: one round over a fixed slice of the keys.
	keys := w.keys
	w.keys, w.first = keys[:min(len(keys), 24)], nil
	_, err = w.pass(ctx, rand.New(rand.NewSource(0)))
	w.keys, w.first = keys, nil
	return err
}

// sequenceText renders a sequence as a request trace: variable names
// separated by spaces, writes marked with "!".
func sequenceText(s *racetrack.Sequence) string {
	var b strings.Builder
	for i, a := range s.Accesses {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name(a.Var))
		if a.Write {
			b.WriteByte('!')
		}
	}
	return b.String()
}

// schedule assigns keys to clients by index parity, so every request of
// one key goes through one client in order (the first is the cold one),
// and shuffles each client's 4 requests per key with rng.
func (w *serveWorkload) schedule(rng *rand.Rand) [serveClients][]int {
	var out [serveClients][]int
	for k := range w.keys {
		c := k % serveClients
		for r := 0; r <= warmRepeats; r++ {
			out[c] = append(out[c], k)
		}
	}
	for c := range out {
		rng.Shuffle(len(out[c]), func(i, j int) { out[c][i], out[c][j] = out[c][j], out[c][i] })
	}
	return out
}

// instance is one round's server over a fresh Lab.
type instance struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func start() (*instance, error) {
	lab, err := racetrack.New(racetrack.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Lab: lab, DefaultDBCs: serveDBCs, Log: log.New(os.Stderr, "rtmserve: ", 0)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { in.done <- in.hs.Serve(ln) }()
	return in, nil
}

// stop drains the server and waits for it to exit.
func (in *instance) stop(ctx context.Context) error {
	err := in.srv.Drain(ctx)
	if serr := in.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-in.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// answer is one request's outcome.
type answer struct {
	key  int
	cold bool // the key's first request of the round
	lat  float64
	resp *rtmclient.PlaceResponse
	err  error
}

func (w *serveWorkload) pass(ctx context.Context, rng *rand.Rand) (*passResult, error) {
	in, err := start()
	if err != nil {
		return nil, err
	}
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients}
	client := &http.Client{Transport: tp}
	sched := w.schedule(rng)
	answers := make([][]answer, serveClients)
	var wg sync.WaitGroup
	runtime.GC() // as between jobs: a clean heap, untimed
	start := time.Now()
	for c := range sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			answers[c] = make([]answer, 0, len(sched[c]))
			seen := make(map[int]bool)
			for _, k := range sched[c] {
				a := w.send(ctx, client, in.url, k)
				a.cold = !seen[k]
				seen[k] = true
				answers[c] = append(answers[c], a)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	st, serr := statz(ctx, client, in.url)
	tp.CloseIdleConnections()
	if err := in.stop(ctx); err != nil {
		return nil, fmt.Errorf("stopping the server: %w", err)
	}
	if serr != nil {
		return nil, serr
	}

	p := &passResult{wall: wall, counts: make(map[string]float64)}
	cold := make([]*rtmclient.PlaceResponse, len(w.keys))
	warm := make([][]*rtmclient.PlaceResponse, len(w.keys))
	for _, as := range answers {
		for _, a := range as {
			p.attempted++
			p.latMS = append(p.latMS, a.lat)
			p.cold = append(p.cold, a.cold)
			switch {
			case a.err != nil:
				p.fail("%s: %v", w.keys[a.key].name, a.err)
				continue
			case a.resp.Partial:
				p.fail("%s: partial answer", w.keys[a.key].name)
				continue
			case a.cold:
				cold[a.key] = a.resp
			default:
				warm[a.key] = append(warm[a.key], a.resp)
			}
			p.accesses += int64(w.keys[a.key].seq.Len())
		}
	}
	p.totals = w.checkRound(p, cold, warm)
	p.counts[cntCoalesced] = float64(st.Coalesced)
	p.counts[cntShed] = float64(st.Shed)
	p.counts[cntKernelHits] = float64(st.KernelCacheHits)
	p.counts[cntKernelLookups] = float64(st.KernelCacheHits + st.KernelCacheMisses)
	if w.first == nil {
		w.first = cold
	}
	return p, nil
}

// checkRound checks that every key got one cold answer and warm answers
// equal to it, and sums the cold answers in key order.
func (w *serveWorkload) checkRound(p *passResult, cold []*rtmclient.PlaceResponse, warm [][]*rtmclient.PlaceResponse) totals {
	var t totals
	for k, c := range cold {
		if c == nil {
			p.fail("%s: no cold answer", w.keys[k].name)
			continue
		}
		if len(warm[k]) != warmRepeats {
			p.fail("%s: %d warm answers, want %d", w.keys[k].name, len(warm[k]), warmRepeats)
		}
		for _, r := range warm[k] {
			if !sameAnswer(c, r) {
				p.fail("%s: warm answer differs from the cold one", w.keys[k].name)
			}
		}
		if c.Cost == nil {
			p.fail("%s: no priced cost", w.keys[k].name)
			continue
		}
		t.Shifts += c.Shifts
		t.EnergyPJ += c.Cost.DynamicPJ + c.Cost.LeakagePJ
		t.TimeNS += c.Cost.RuntimeNS
	}
	return t
}

// sameAnswer compares two responses on everything but whether they were
// coalesced.
func sameAnswer(a, b *rtmclient.PlaceResponse) bool {
	x, y := *a, *b
	x.Coalesced, y.Coalesced = false, false
	return reflect.DeepEqual(x, y)
}

// send posts one request and times it until the body is read.
func (w *serveWorkload) send(ctx context.Context, client *http.Client, url string, k int) answer {
	a := answer{key: k}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/place", bytes.NewReader(w.keys[k].body))
	if err != nil {
		a.err = err
		return a
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a.lat = msSince(t0)
	switch {
	case err != nil:
		a.err = err
	case resp.StatusCode != http.StatusOK:
		a.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		a.resp = new(rtmclient.PlaceResponse)
		a.err = json.Unmarshal(body, a.resp)
	}
	return a
}

func statz(ctx context.Context, client *http.Client, url string) (server.Stats, error) {
	var st server.Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/statz", nil)
	if err != nil {
		return st, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /statz: %w", err)
	}
	return st, nil
}

// tracedPass replays one round in process, request by request, through
// the stages the handler runs: body decode, trace parse, fingerprint,
// the Lab placement (kernel lookup, strategy, attribution, pricing) and
// the response encoding. HTTP, admission and coalescing are not
// replayed; they are the residual against the untraced round.
func (w *serveWorkload) tracedPass(ctx context.Context, rng *rand.Rand, tr *tracer) (*passResult, error) {
	ks := newKernelSource(racetrack.DefaultKernelCacheSize)
	sched := w.schedule(rng)
	p := &passResult{counts: make(map[string]float64)}
	cold := make([]*rtmclient.PlaceResponse, len(w.keys))
	warm := make([][]*rtmclient.PlaceResponse, len(w.keys))
	runtime.GC() // as before an untraced round
	for i := 0; i < len(sched[0]) || i < len(sched[1]); i++ {
		for c := range sched {
			if i >= len(sched[c]) {
				continue
			}
			k := sched[c][i]
			t0 := time.Now()
			tr.startJob("serve.request")
			resp, err := w.replay(ctx, tr, p.counts, ks, k)
			tr.end()
			p.record(t0)
			p.attempted++
			if err != nil {
				p.fail("traced %s: %v", w.keys[k].name, err)
				continue
			}
			p.accesses += int64(w.keys[k].seq.Len())
			if cold[k] == nil {
				cold[k] = resp
			} else {
				warm[k] = append(warm[k], resp)
			}
		}
	}
	p.totals = w.checkRound(p, cold, warm)
	for k, c := range cold {
		if c != nil && w.first != nil && w.first[k] != nil && !sameAnswer(c, w.first[k]) {
			p.fail("%s: the replay's answer differs from the served one", w.keys[k].name)
		}
	}
	return p, nil
}

// replay serves one request in process, stage by stage.
func (w *serveWorkload) replay(ctx context.Context, tr *tracer, counts map[string]float64, ks *kernelSource, k int) (*rtmclient.PlaceResponse, error) {
	var wire rtmclient.PlaceRequest
	if err := tr.stage(spanServerDecode, func() error {
		dec := json.NewDecoder(bytes.NewReader(w.keys[k].body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			return err
		}
		_, _, err := racetrack.ParseObjective(wire.Objective)
		return err
	}); err != nil {
		return nil, err
	}
	var seq *racetrack.Sequence
	if err := tr.stage(spanRequestParse, func() (err error) {
		seq, err = racetrack.ParseSequence(wire.Trace)
		return err
	}); err != nil {
		return nil, err
	}
	counts[cntDecodedAccesses] += float64(seq.Len())
	model, err := costModel(wire.Objective, wire.DBCs)
	if err != nil {
		return nil, err
	}
	var fp uint64
	_ = tr.stage(spanFingerprint, func() error { fp = seq.Fingerprint(); return nil })
	opts := racetrack.PlaceOptions{Strategy: racetrack.Strategy(wire.Strategy), DBCs: wire.DBCs, Objective: model.Spec()}
	res, err := replayPlace(ctx, w.reg, tr, counts, ks, []*racetrack.Sequence{seq}, opts)
	if err != nil {
		return nil, err
	}
	r := res[0]
	resp := &rtmclient.PlaceResponse{
		Strategy: wire.Strategy, DBCs: wire.DBCs, Fingerprint: fmt.Sprintf("%016x", fp),
		Shifts: r.Shifts, PerDBC: r.PerDBC, Cost: wireCost(model.Spec(), r.Cost),
	}
	err = tr.stage(spanServerEncode, func() error {
		resp.Placement = namedPlacement(seq, r.Placement)
		return json.NewEncoder(io.Discard).Encode(resp)
	})
	return resp, err
}

// wireCost renders a priced cost as the service does.
func wireCost(spec string, c *racetrack.Cost) *rtmclient.PlaceCost {
	return &rtmclient.PlaceCost{
		Objective: spec, Shifts: c.Shifts, Reads: c.Reads, Writes: c.Writes,
		FaultShifts: c.FaultShifts, RuntimeNS: c.RuntimeNS,
		DynamicPJ: c.DynamicPJ, LeakagePJ: c.LeakagePJ, Scalar: c.Scalar,
	}
}

// namedPlacement renders a placement with the sequence's variable names.
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

// verify compares the first round's cold answers with an in-process
// Lab.Place of the same key.
func (w *serveWorkload) verify(ctx context.Context) []string {
	lab, err := racetrack.New(racetrack.WithWorkers(1))
	if err != nil {
		return []string{err.Error()}
	}
	model, err := costModel(serveObjective, serveDBCs)
	if err != nil {
		return []string{err.Error()}
	}
	var fails []string
	for k, got := range w.first {
		if got == nil {
			continue // counted in its round
		}
		key := w.keys[k]
		seq, err := racetrack.ParseSequence(sequenceText(key.seq))
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", key.name, err))
			continue
		}
		res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: key.strategy, DBCs: serveDBCs, Workers: 1, Objective: serveObjective})
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: reference: %v", key.name, err))
			continue
		}
		want := &rtmclient.PlaceResponse{
			Strategy: string(key.strategy), DBCs: serveDBCs, Fingerprint: fmt.Sprintf("%016x", seq.Fingerprint()),
			Shifts: res.Shifts, PerDBC: res.PerDBC, Placement: namedPlacement(seq, res.Placement),
			Cost: wireCost(model.Spec(), res.Cost),
		}
		if !sameAnswer(got, want) {
			fails = append(fails, fmt.Sprintf("%s: served %d shifts, in-process Lab.Place %d (or another field differs)", key.name, got.Shifts, res.Shifts))
		}
	}
	return fails
}
