package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	racetrack "repro"
	"repro/rtmclient"
)

// Request decoding: the untrusted boundary. A body of arbitrary bytes
// becomes a typed, validated placement request or a client error —
// never a panic and never an unbounded allocation (the handler caps the
// body size with http.MaxBytesReader before this sees it; the numeric
// caps below bound what a hostile but well-formed request can ask for).

// Request size/field caps.
const (
	// MaxBodyBytes bounds the /v1/place request body.
	MaxBodyBytes = 16 << 20
	// maxDBCs/maxPorts/maxCapacity bound the placement options a request
	// may select — generous multiples of any Table I device.
	maxDBCs     = 4096
	maxPorts    = 1024
	maxCapacity = 1 << 30
	// maxTenantLen bounds the tenant label (it keys an accounting map).
	maxTenantLen = 128
	// maxObjectiveLen bounds the objective spec before parsing.
	maxObjectiveLen = 64
)

// firstBodyBuffer caps the buffer readBody sizes from Content-Length, so
// a hostile length cannot make the server reserve MaxBodyBytes before
// admission; a longer body grows it as it arrives.
const firstBodyBuffer = 64 << 10

// readBody reads a request body into one buffer sized from its declared
// length, where io.ReadAll would grow one from 512 bytes.
func readBody(body io.Reader, length int64) ([]byte, error) {
	switch {
	case length < 0: // not declared
		length = 512
	case length > firstBodyBuffer:
		length = firstBodyBuffer
	}
	b := make([]byte, 0, length+1) // the read that returns io.EOF needs room
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// placeRequest is the decoded, validated form of one /v1/place call.
type placeRequest struct {
	seq      *racetrack.Sequence
	strategy racetrack.Strategy
	dbcs     int
	capacity int
	ports    int
	deadline time.Duration // client ask; 0 = use the server default
	tenant   string
	// objective is the request's cost-objective spec, syntax-checked at
	// decode time ("" = no pricing). It is canonicalized against the
	// effective DBC count after defaulting (Server.resolveObjective) —
	// the canonical spec, not this raw string, keys the caches.
	objective string
}

// decodePlaceRequest turns an uploaded body into a typed request. Every
// failure is a client error (HTTP 400); malformed input of any shape
// must come back as an error, never a panic (FuzzDecodePlaceRequest
// pins this).
func decodePlaceRequest(body []byte) (*placeRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var wire rtmclient.PlaceRequest
	if err := dec.Decode(&wire); err != nil {
		return nil, fmt.Errorf("invalid request body: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("invalid request body: trailing data after the JSON object")
	}
	if wire.Trace == "" {
		return nil, fmt.Errorf("missing trace")
	}
	switch {
	case wire.DBCs < 0 || wire.DBCs > maxDBCs:
		return nil, fmt.Errorf("dbcs %d out of range [0,%d]", wire.DBCs, maxDBCs)
	case wire.Capacity < 0 || wire.Capacity > maxCapacity:
		return nil, fmt.Errorf("capacity %d out of range [0,%d]", wire.Capacity, maxCapacity)
	case wire.Ports < 0 || wire.Ports > maxPorts:
		return nil, fmt.Errorf("ports %d out of range [0,%d]", wire.Ports, maxPorts)
	case wire.DeadlineMillis < 0:
		return nil, fmt.Errorf("deadline_ms %d is negative", wire.DeadlineMillis)
	case len(wire.Tenant) > maxTenantLen:
		return nil, fmt.Errorf("tenant label longer than %d bytes", maxTenantLen)
	case len(wire.Objective) > maxObjectiveLen:
		return nil, fmt.Errorf("objective spec longer than %d bytes", maxObjectiveLen)
	}
	if wire.Objective != "" {
		if _, _, err := racetrack.ParseObjective(wire.Objective); err != nil {
			return nil, fmt.Errorf("invalid objective: %v", err)
		}
	}
	seq, err := racetrack.ParseSequence(wire.Trace)
	if err != nil {
		return nil, fmt.Errorf("invalid trace: %v", err)
	}
	return &placeRequest{
		seq:       seq,
		strategy:  racetrack.Strategy(wire.Strategy),
		dbcs:      wire.DBCs,
		capacity:  wire.Capacity,
		ports:     wire.Ports,
		deadline:  time.Duration(wire.DeadlineMillis) * time.Millisecond,
		tenant:    wire.Tenant,
		objective: wire.Objective,
	}, nil
}
