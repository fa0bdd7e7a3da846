// Package diskcache is the placement service's crash-safe persistent
// result cache: finished placements keyed by the trace's content
// fingerprint plus the placement options, stored one entry per file so
// restarts and horizontal replicas start warm.
//
// The robustness discipline mirrors the binary trace format's
// (internal/trace/binfmt.go): every entry carries a magic/version
// header, its full key material, and a trailing FNV-1a checksum over
// everything before the trailer. Writes are atomic — encode to a
// temporary file in the cache directory, sync, rename — so a crash
// mid-write leaves at worst a stray temp file (swept on Open), never a
// torn visible entry. Loads verify the trailer AND the key material; a
// corrupt, truncated or mismatched entry is quarantined (renamed aside)
// and reported as a miss, so the caller rebuilds it — corruption is
// never fatal and never serves a wrong placement.
package diskcache

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Key identifies one cached placement: the sequence's content
// fingerprint (trace.Sequence.Fingerprint) and every option that
// changes the result.
type Key struct {
	// Fingerprint is the trace's 64-bit content fingerprint.
	Fingerprint uint64
	// Strategy is the placement strategy name.
	Strategy string
	// Objective is the canonical cost-objective spec the result was
	// priced under ("" = no pricing). The objective never changes the
	// layout, but it is key material anyway: a cached answer must carry
	// the cost dimensions the request asked for, so "energy" must not
	// serve a hit stored under "" or "faulty:0.01".
	Objective string
	// DBCs, Capacity and Ports are the placement options that shape the
	// result (PlaceOptions.DBCs/Capacity/Ports).
	DBCs, Capacity, Ports int
}

// Entry is one cached placement result.
type Entry struct {
	Key Key
	// Shifts is the placement's total attributed shift cost; PerDBC
	// attributes it per DBC.
	Shifts int64
	PerDBC []int64
	// DBC is the placement layout: DBC[i][k] is the variable at offset k
	// of DBC i (placement.Placement.DBC).
	DBC [][]int
}

// Stats counts cache activity since Open.
type Stats struct {
	// Hits and Misses count Get outcomes; a quarantined entry counts as
	// a miss too.
	Hits, Misses int64
	// Writes counts successful Puts.
	Writes int64
	// Quarantined counts entries renamed aside because they failed
	// verification (corrupt, truncated, or keyed to different content).
	Quarantined int64
	// SweptTemps counts crash-leftover temporary files removed by Open.
	SweptTemps int64
}

// Cache is a directory of verified placement entries. Safe for
// concurrent use; writes are atomic and synchronous (an entry is
// durable when Put returns), so there is nothing to lose on a crash
// beyond the entry being written at that instant.
type Cache struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open prepares the cache directory (creating it if needed) and sweeps
// temporary files left behind by a crash mid-write — an interrupted
// atomic write never produces a visible entry, only a stray temp.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	c := &Cache{dir: dir}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	for _, de := range names {
		if strings.Contains(de.Name(), tmpMarker) {
			if os.Remove(filepath.Join(dir, de.Name())) == nil {
				c.stats.SweptTemps++
			}
		}
	}
	return c, nil
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get loads and verifies the entry for k. It returns (nil, false) on a
// miss — including the quarantine path: an entry that exists but fails
// any verification step (bad magic/version, truncation, checksum
// mismatch, key material not equal to k) is renamed aside and treated
// as a miss so the caller rebuilds it. Get never fails the request over
// a bad cache file.
func (c *Cache) Get(k Key) (*Entry, bool) {
	path := c.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	e, derr := decodeEntry(raw)
	if derr != nil || e.Key != k {
		c.quarantine(path)
		c.count(func(s *Stats) { s.Misses++; s.Quarantined++ })
		return nil, false
	}
	c.count(func(s *Stats) { s.Hits++ })
	return e, true
}

// Put durably stores the entry: encode, write to a temp file in the
// cache directory, sync, rename over the final name. Concurrent Puts of
// the same key are safe (last rename wins; both payloads verify).
func (c *Cache) Put(e *Entry) error {
	if e == nil {
		return fmt.Errorf("diskcache: Put(nil)")
	}
	raw := encodeEntry(e)
	path := c.path(e.Key)
	tmp, err := os.CreateTemp(c.dir, filepath.Base(path)+tmpMarker+"*")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("diskcache: writing %s: %w", filepath.Base(path), err)
	}
	c.count(func(s *Stats) { s.Writes++ })
	return nil
}

// Flush is the drain hook: writes are synchronous, so every Put that
// returned is already durable and Flush has nothing buffered to push.
// It exists so the serving front-end's shutdown sequence (stop
// accepting, finish in-flight, flush cache) reads the same whether or
// not a future cache buffers writes.
func (c *Cache) Flush() error { return nil }

const tmpMarker = ".tmp"

// quarantine renames a failed entry aside (".bad"); if even the rename
// fails the entry is removed — either way it stops shadowing rebuilds.
func (c *Cache) quarantine(path string) {
	if os.Rename(path, path+".bad") != nil {
		os.Remove(path)
	}
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// path names k's entry file: an FNV-1a hash over the full key material,
// so filenames are uniform and filesystem-safe regardless of strategy
// names. Key equality is re-verified on load; a filename hash collision
// therefore costs a rebuild, never a wrong result.
func (c *Cache) path(k Key) string {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime64
			v >>= 8
		}
	}
	mix(k.Fingerprint)
	mix(uint64(len(k.Strategy)))
	for i := 0; i < len(k.Strategy); i++ {
		h ^= uint64(k.Strategy[i])
		h *= fnvPrime64
	}
	mix(uint64(len(k.Objective)))
	for i := 0; i < len(k.Objective); i++ {
		h ^= uint64(k.Objective[i])
		h *= fnvPrime64
	}
	mix(uint64(int64(k.DBCs)))
	mix(uint64(int64(k.Capacity)))
	mix(uint64(int64(k.Ports)))
	return filepath.Join(c.dir, fmt.Sprintf("%016x.rtpc", h))
}

// Entry encoding. Layout (little-endian, "uvarint"/"varint" are
// encoding/binary's):
//
//	Entry := "RTPC" | uint16 version (= 2)
//	         | uint64 fingerprint
//	         | uvarint len(strategy) | strategy bytes
//	         | uvarint len(objective) | objective bytes
//	         | uvarint dbcs | uvarint capacity | uvarint ports
//	         | varint shifts
//	         | uvarint len(perDBC) | len × varint
//	         | uvarint numDBCs | numDBCs × (uvarint len | len × uvarint var)
//	         | uint64 FNV-1a over all preceding bytes
const (
	entryMagic = "RTPC"
	// entryVersion 2 added the objective to the key material; version 1
	// entries (no objective) decode as unsupported and are rebuilt — a
	// stale pre-objective entry must never answer a priced request.
	entryVersion = 2

	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	// Sanity caps: what a corrupt or adversarial header can make the
	// decoder allocate before the checksum proves the payload. Far above
	// any real placement, far below anything dangerous.
	maxStrategyLen = 1 << 10
	maxListLen     = 1 << 26
)

func encodeEntry(e *Entry) []byte {
	var buf []byte
	buf = append(buf, entryMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, entryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, e.Key.Fingerprint)
	buf = binary.AppendUvarint(buf, uint64(len(e.Key.Strategy)))
	buf = append(buf, e.Key.Strategy...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Key.Objective)))
	buf = append(buf, e.Key.Objective...)
	buf = binary.AppendUvarint(buf, uint64(e.Key.DBCs))
	buf = binary.AppendUvarint(buf, uint64(e.Key.Capacity))
	buf = binary.AppendUvarint(buf, uint64(e.Key.Ports))
	buf = binary.AppendVarint(buf, e.Shifts)
	buf = binary.AppendUvarint(buf, uint64(len(e.PerDBC)))
	for _, v := range e.PerDBC {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.DBC)))
	for _, d := range e.DBC {
		buf = binary.AppendUvarint(buf, uint64(len(d)))
		for _, v := range d {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return binary.LittleEndian.AppendUint64(buf, checksum(buf))
}

func checksum(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// decoder reads the entry payload with a running error; every read is
// bounds-checked so truncated input yields an error, never a panic.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("diskcache: truncated entry")
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *decoder) u16() uint16 {
	if p := d.bytes(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.bytes(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) uvarint(cap uint64, what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("diskcache: truncated entry at %s", what)
		return 0
	}
	d.off += n
	if v > cap {
		d.fail("diskcache: implausible %s %d", what, v)
		return 0
	}
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("diskcache: truncated entry at %s", what)
		return 0
	}
	d.off += n
	return v
}

func decodeEntry(raw []byte) (*Entry, error) {
	trailer := len(raw) - 8
	if trailer < len(entryMagic)+2 {
		return nil, fmt.Errorf("diskcache: entry too short (%d bytes)", len(raw))
	}
	if string(raw[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("diskcache: bad magic")
	}
	if got := binary.LittleEndian.Uint64(raw[trailer:]); got != checksum(raw[:trailer]) {
		return nil, fmt.Errorf("diskcache: checksum mismatch")
	}
	d := &decoder{b: raw[:trailer], off: len(entryMagic)}
	if v := d.u16(); d.err == nil && v != entryVersion {
		return nil, fmt.Errorf("diskcache: unsupported version %d", v)
	}
	e := &Entry{}
	e.Key.Fingerprint = d.u64()
	e.Key.Strategy = string(d.bytes(int(d.uvarint(maxStrategyLen, "strategy length"))))
	e.Key.Objective = string(d.bytes(int(d.uvarint(maxStrategyLen, "objective length"))))
	e.Key.DBCs = int(d.uvarint(maxListLen, "dbcs"))
	e.Key.Capacity = int(d.uvarint(maxListLen, "capacity"))
	e.Key.Ports = int(d.uvarint(maxListLen, "ports"))
	e.Shifts = d.varint("shifts")
	if n := int(d.uvarint(maxListLen, "perDBC length")); d.err == nil {
		e.PerDBC = make([]int64, n)
		for i := range e.PerDBC {
			e.PerDBC[i] = d.varint("perDBC")
		}
	}
	if n := int(d.uvarint(maxListLen, "DBC count")); d.err == nil {
		e.DBC = make([][]int, n)
		for i := range e.DBC {
			m := int(d.uvarint(maxListLen, "DBC length"))
			if d.err != nil {
				break
			}
			e.DBC[i] = make([]int, m)
			for j := range e.DBC[i] {
				e.DBC[i][j] = int(d.uvarint(maxListLen, "variable"))
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != trailer {
		return nil, fmt.Errorf("diskcache: %d trailing bytes", trailer-d.off)
	}
	return e, nil
}
