package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// A span is one timed stage of a traced job. Spans of one job share the
// job id; Parent indexes the enclosing span (-1 for the job's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// A tracer records spans in memory for one goroutine; they are written
// out once, when the run ends. Spans nest strictly: end closes the
// innermost open span.
type tracer struct {
	origin time.Time
	now    func() time.Duration // since origin; replaceable in tests
	spans  []span
	open   []int // stack of open span indices
	job    int
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.now = func() time.Duration { return time.Since(t.origin) }
	return t
}

// startJob opens the root span of the next job.
func (t *tracer) startJob(name string) {
	t.job++
	t.begin(name)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(t.now()), Parent: parent, Job: t.job})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open)
	t.spans[t.open[n-1]].End = int64(t.now())
	t.open = t.open[:n-1]
}

// stage runs f inside a span named name.
func (t *tracer) stage(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// A profile is the per-layer view of a set of closed spans: each stage's
// self time (its duration minus the time its child spans cover), the
// sum of the stage self times, and the total duration of the job roots.
type profile struct {
	selfNS  map[string]int64
	stageNS int64 // self times of every non-root span
	rootNS  int64 // durations of the job roots (traced end-to-end time)
}

// profileOf computes self times over spans[from:]. Spans nest strictly
// and children run one after another, so a span's children cover the
// sum of their durations.
func profileOf(spans []span, from int) profile {
	p := profile{selfNS: make(map[string]int64)}
	child := make(map[int]int64)
	for i := from; i < len(spans); i++ {
		if par := spans[i].Parent; par >= from {
			child[par] += spans[i].End - spans[i].Start
		}
	}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		dur := s.End - s.Start
		if s.Parent < 0 {
			p.rootNS += dur
			continue
		}
		p.selfNS[s.Name] += dur - child[i]
		p.stageNS += dur - child[i]
	}
	return p
}

// writeSpans saves the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
