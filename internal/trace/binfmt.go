package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// The compact binary trace format — the on-disk representation of the
// out-of-core pipeline. Text traces carry ~4–8 bytes per access and must
// be tokenized; the binary format carries ~1–2 bytes per access (loops
// revisit nearby variables, so the zigzag var deltas are tiny) and
// decodes with two branch-free varint reads, which is what makes
// corpus-scale 10⁸–10⁹-access traces practical to scan repeatedly.
//
// Layout (all integers little-endian; "uvarint" is the unsigned varint
// of encoding/binary):
//
//	File     := "RTBF" | uint16 version (= 1) | uvarint seqCount | Seq*
//	Seq      := uvarint numVars | uvarint accessCount | uvarint nameCount
//	            | nameCount × (uvarint len | len bytes)     names, 0 or numVars
//	            | accessCount × uvarint token               the access stream
//	            | uint64 fingerprint                        trailer
//	token    := zigzag(var − prevVar) << 1 | writeBit       prevVar starts at 0
//
// The trailer fingerprint is the FNV-1a hash of Sequence.Fingerprint
// computed over the declared universe (numVars, the names, the ordered
// access stream); the streaming scanner accumulates it while decoding
// and verifies it after the final access, so truncation and corruption
// of the payload are detected without ever materializing the trace.
// For a dense sequence (every variable below numVars accessed, the
// invariant of parsed text traces) it equals Sequence.Fingerprint()
// exactly. It trails rather than leads so that writers stream: a
// BinWriter never buffers or seeks, it only needs the counts declared
// up front.
//
// Format evolution bumps binVersion; readers reject versions they do
// not understand rather than guessing.

// Binary-format constants and sanity caps. The caps bound what a
// corrupt or adversarial header can make a reader allocate before the
// payload proves itself: eager reads grow incrementally and streaming
// reads are O(numVars) regardless, but a parsed name or universe still
// allocates, so declared sizes beyond any plausible trace are rejected
// up front.
const (
	binMagic   = "RTBF"
	binVersion = 1

	maxBinVars    = 1 << 31 // variable universe cap
	maxBinNameLen = 1 << 20 // single name cap (bytes)
	maxBinSeqs    = 1 << 24 // sequences per file cap
)

// zigzag maps signed deltas to unsigned varint-friendly codes
// (0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4, ...).
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binHash accumulates a sequence fingerprint incrementally: FNV-1a over
// the universe size, the name count, the names and the accesses, in that
// order. Sequence.Fingerprint, the writer's trailer and the scanner's
// verification all run through it.
type binHash struct{ h uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvPrime64Pow6 is fnvPrime64^6 mod 2^64: the product of six FNV-1a
	// steps over zero bytes, since XOR with a zero byte is the identity.
	fnvPrime64Pow6 = fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 * fnvPrime64 % (1 << 64)
)

func newBinHash() binHash { return binHash{h: fnvOffset64} }

// mix folds the eight little-endian bytes of v into the hash, one FNV-1a
// step per byte. When the six high bytes are zero (every access token of
// a variable below 2^15) their steps collapse into one multiply.
func (b *binHash) mix(v uint64) {
	h := b.h
	if v < 1<<16 {
		h = (h ^ v&0xff) * fnvPrime64
		h = (h ^ v>>8) * fnvPrime64
		b.h = h * fnvPrime64Pow6
		return
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	b.h = h
}

func (b *binHash) mixName(n string) {
	h := b.h
	for i := 0; i < len(n); i++ {
		h ^= uint64(n[i])
		h *= fnvPrime64
	}
	h ^= 0xff // name separator
	h *= fnvPrime64
	b.h = h
}

func (b *binHash) mixAccess(a Access) {
	v := uint64(a.Var) << 1
	if a.Write {
		v |= 1
	}
	b.mix(v)
}

// header seeds the hash with the universe part of the fingerprint.
func (b *binHash) header(numVars int, names []string) {
	b.mix(uint64(numVars))
	b.mix(uint64(len(names)))
	for _, n := range names {
		b.mixName(n)
	}
}

// A BinWriter encodes sequences into the binary format, streaming: the
// caller declares each sequence's universe and access count up front
// (synthetic generators and converters know both), then appends
// accesses one at a time. Nothing is buffered beyond the bufio layer
// and nothing is ever seeked, so a BinWriter writes to pipes and
// sockets as well as files, in O(numVars) memory.
type BinWriter struct {
	w         *bufio.Writer
	declared  int   // sequences declared in the file header
	begun     int   // sequences begun
	remaining int64 // accesses still owed in the open sequence
	open      bool
	numVars   int
	prevVar   int64
	hash      binHash
	scratch   [binary.MaxVarintLen64]byte
	err       error
}

// NewBinWriter writes the file header for a file of seqCount sequences
// and returns the writer. Every declared sequence must be written
// (BeginSequence/Append/EndSequence) before Close.
func NewBinWriter(w io.Writer, seqCount int) (*BinWriter, error) {
	if seqCount < 0 || seqCount > maxBinSeqs {
		return nil, fmt.Errorf("trace: binary writer: invalid sequence count %d", seqCount)
	}
	bw := &BinWriter{w: bufio.NewWriterSize(w, 1<<16), declared: seqCount}
	if _, err := bw.w.WriteString(binMagic); err != nil {
		return nil, err
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], binVersion)
	if _, err := bw.w.Write(v[:]); err != nil {
		return nil, err
	}
	bw.putUvarint(uint64(seqCount))
	return bw, bw.err
}

func (bw *BinWriter) putUvarint(v uint64) {
	if bw.err != nil {
		return
	}
	n := binary.PutUvarint(bw.scratch[:], v)
	_, bw.err = bw.w.Write(bw.scratch[:n])
}

// BeginSequence opens the next sequence: a universe of numVars
// variables, exactly accessCount accesses to follow, and optional names
// (nil, or exactly numVars labels).
func (bw *BinWriter) BeginSequence(numVars int, accessCount int64, names []string) error {
	if bw.err != nil {
		return bw.err
	}
	switch {
	case bw.open:
		return fmt.Errorf("trace: binary writer: BeginSequence with sequence %d still open", bw.begun-1)
	case bw.begun >= bw.declared:
		return fmt.Errorf("trace: binary writer: file declared %d sequences", bw.declared)
	case numVars < 0 || numVars > maxBinVars:
		return fmt.Errorf("trace: binary writer: invalid universe size %d", numVars)
	case accessCount < 0:
		return fmt.Errorf("trace: binary writer: invalid access count %d", accessCount)
	case names != nil && len(names) != numVars:
		return fmt.Errorf("trace: binary writer: %d names for %d variables", len(names), numVars)
	}
	bw.putUvarint(uint64(numVars))
	bw.putUvarint(uint64(accessCount))
	bw.putUvarint(uint64(len(names)))
	for _, n := range names {
		if len(n) > maxBinNameLen {
			return fmt.Errorf("trace: binary writer: name of %d bytes exceeds cap", len(n))
		}
		bw.putUvarint(uint64(len(n)))
		if bw.err == nil {
			_, bw.err = bw.w.WriteString(n)
		}
	}
	bw.open = true
	bw.begun++
	bw.remaining = accessCount
	bw.numVars = numVars
	bw.prevVar = 0
	bw.hash = newBinHash()
	bw.hash.header(numVars, names)
	return bw.err
}

// Append encodes one access of the open sequence.
func (bw *BinWriter) Append(a Access) error {
	if bw.err != nil {
		return bw.err
	}
	if !bw.open {
		return fmt.Errorf("trace: binary writer: Append outside a sequence")
	}
	if bw.remaining <= 0 {
		return fmt.Errorf("trace: binary writer: sequence declared fewer accesses")
	}
	if a.Var < 0 || a.Var >= bw.numVars {
		return fmt.Errorf("trace: binary writer: access to variable %d outside universe of %d", a.Var, bw.numVars)
	}
	tok := zigzag(int64(a.Var)-bw.prevVar) << 1
	if a.Write {
		tok |= 1
	}
	bw.putUvarint(tok)
	bw.prevVar = int64(a.Var)
	bw.hash.mixAccess(a)
	bw.remaining--
	return bw.err
}

// EndSequence writes the fingerprint trailer and closes the open
// sequence. It fails if fewer accesses were appended than declared.
func (bw *BinWriter) EndSequence() error {
	if bw.err != nil {
		return bw.err
	}
	if !bw.open {
		return fmt.Errorf("trace: binary writer: EndSequence outside a sequence")
	}
	if bw.remaining != 0 {
		return fmt.Errorf("trace: binary writer: sequence short by %d accesses", bw.remaining)
	}
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], bw.hash.h)
	_, bw.err = bw.w.Write(t[:])
	bw.open = false
	return bw.err
}

// Close flushes the writer. It fails if fewer sequences were written
// than the file header declared.
func (bw *BinWriter) Close() error {
	if bw.err != nil {
		return bw.err
	}
	if bw.open {
		return fmt.Errorf("trace: binary writer: Close with a sequence open")
	}
	if bw.begun != bw.declared {
		return fmt.Errorf("trace: binary writer: wrote %d of %d declared sequences", bw.begun, bw.declared)
	}
	return bw.w.Flush()
}

// WriteBinary encodes a benchmark into the binary format.
func WriteBinary(w io.Writer, b *Benchmark) error {
	bw, err := NewBinWriter(w, len(b.Sequences))
	if err != nil {
		return err
	}
	for _, s := range b.Sequences {
		if err := bw.BeginSequence(s.NumVars(), int64(s.Len()), s.Names); err != nil {
			return err
		}
		for _, a := range s.Accesses {
			if err := bw.Append(a); err != nil {
				return err
			}
		}
		if err := bw.EndSequence(); err != nil {
			return err
		}
	}
	return bw.Close()
}

// byteScanner is the reader the decoder runs on: bufio.Reader for
// chunked file/stream backends, bytes.Reader for the mmap backend.
type byteScanner interface {
	io.ByteReader
	io.Reader
}

// A BinReader decodes a binary trace file sequence by sequence. Obtain
// scanners with ScanSequence; each must be drained (or the next
// ScanSequence call drains it) before the following sequence starts.
type BinReader struct {
	r        byteScanner
	seqCount int
	scanned  int
	cur      *SeqScanner
}

// NewBinReader validates the file header and returns a reader. The
// decode is fully streaming: memory is proportional to the largest
// variable universe (for names), never to the access count.
func NewBinReader(r io.Reader) (*BinReader, error) {
	bs, ok := r.(byteScanner)
	if !ok {
		bs = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(bs, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("trace: not a binary trace (bad magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binVersion {
		return nil, fmt.Errorf("trace: unsupported binary trace version %d (reader speaks %d)", v, binVersion)
	}
	n, err := binary.ReadUvarint(bs)
	if err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", err)
	}
	if n > maxBinSeqs {
		return nil, fmt.Errorf("trace: binary header declares %d sequences (cap %d)", n, maxBinSeqs)
	}
	return &BinReader{r: bs, seqCount: int(n)}, nil
}

// SeqCount returns the number of sequences the file header declares.
func (br *BinReader) SeqCount() int { return br.seqCount }

// ScanSequence returns the streaming scanner for the next sequence,
// draining any previously returned scanner first. After the last
// sequence it returns io.EOF.
func (br *BinReader) ScanSequence() (*SeqScanner, error) {
	if br.cur != nil {
		if err := br.cur.drain(); err != nil {
			return nil, err
		}
		br.cur = nil
	}
	if br.scanned >= br.seqCount {
		return nil, io.EOF
	}
	sc, err := newSeqScanner(br.r)
	if err != nil {
		return nil, fmt.Errorf("trace: binary sequence %d: %w", br.scanned, err)
	}
	br.scanned++
	br.cur = sc
	return sc, nil
}

// A SeqScanner streams one sequence's accesses out of the binary
// payload, implementing AccessReader. NumVars, Len and Names come from
// the sequence header; Next yields the accesses in order and returns
// io.EOF after verifying the fingerprint trailer, so a stream that
// reached io.EOF is guaranteed uncorrupted and untruncated.
type SeqScanner struct {
	r         byteScanner
	mapped    *byteSliceScanner // r, when it reads mapped bytes
	numVars   int
	accesses  int64
	names     []string
	remaining int64
	prevVar   int64
	hash      binHash
	done      bool
	err       error
}

func newSeqScanner(r byteScanner) (*SeqScanner, error) {
	nv, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("header: %w", noEOF(err))
	}
	if nv > maxBinVars {
		return nil, fmt.Errorf("header declares %d variables (cap %d)", nv, maxBinVars)
	}
	ac, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("header: %w", noEOF(err))
	}
	if ac > 1<<62 {
		return nil, fmt.Errorf("header declares implausible access count %d", ac)
	}
	nc, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("header: %w", noEOF(err))
	}
	if nc != 0 && nc != nv {
		return nil, fmt.Errorf("header declares %d names for %d variables", nc, nv)
	}
	var names []string
	if nc > 0 {
		names = make([]string, 0, min64(int64(nc), 1<<16))
		buf := make([]byte, 0, 64)
		for i := uint64(0); i < nc; i++ {
			l, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("name %d: %w", i, noEOF(err))
			}
			if l > maxBinNameLen {
				return nil, fmt.Errorf("name %d of %d bytes exceeds cap", i, l)
			}
			if uint64(cap(buf)) < l {
				buf = make([]byte, l)
			}
			buf = buf[:l]
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, fmt.Errorf("name %d: %w", i, noEOF(err))
			}
			names = append(names, string(buf))
		}
	}
	sc := &SeqScanner{
		r: r, numVars: int(nv), accesses: int64(ac), names: names,
		remaining: int64(ac), hash: newBinHash(),
	}
	sc.mapped, _ = r.(*byteSliceScanner)
	sc.hash.header(sc.numVars, names)
	return sc, nil
}

// min64 bounds an eager preallocation by a sane cap.
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// noEOF converts a clean EOF into ErrUnexpectedEOF: inside a declared
// structure, running out of bytes is truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// NumVars returns the declared variable universe of the sequence.
func (sc *SeqScanner) NumVars() int { return sc.numVars }

// Len returns the declared access count.
func (sc *SeqScanner) Len() int64 { return sc.accesses }

// Names returns the declared variable names, or nil for an unnamed
// sequence. The slice is owned by the scanner; callers must not mutate.
func (sc *SeqScanner) Names() []string { return sc.names }

// Name returns a printable label for variable v.
func (sc *SeqScanner) Name(v int) string {
	if v >= 0 && v < len(sc.names) {
		return sc.names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Next implements AccessReader: it decodes the next access, or returns
// io.EOF after the declared count once the fingerprint trailer
// verifies. Errors are sticky.
//
//rtm:hotpath
func (sc *SeqScanner) Next() (Access, error) {
	if sc.err != nil {
		return Access{}, sc.err
	}
	if sc.remaining <= 0 {
		return Access{}, sc.finish()
	}
	var tok uint64
	var n int
	if m := sc.mapped; m != nil {
		// Decode straight from the mapped bytes. A token binary.Uvarint
		// cannot decode whole (n <= 0: cut short or overflowing) is
		// re-read through the byte reader, so its error is the buffered
		// path's.
		if tok, n = binary.Uvarint(m.data[m.pos:]); n > 0 {
			m.pos += n
		}
	}
	if n <= 0 {
		var err error
		if tok, err = sc.readToken(); err != nil {
			return Access{}, err
		}
	}
	v := sc.prevVar + unzigzag(tok>>1)
	if v < 0 || v >= int64(sc.numVars) {
		sc.err = badVariable(v, sc.numVars)
		return Access{}, sc.err
	}
	a := Access{Var: int(v), Write: tok&1 != 0}
	sc.prevVar = v
	sc.hash.mixAccess(a)
	sc.remaining--
	return a, nil
}

// readToken decodes the next token through the byte reader, recording a
// failure as the scanner's sticky error.
func (sc *SeqScanner) readToken() (uint64, error) {
	tok, err := binary.ReadUvarint(sc.r)
	if err != nil {
		sc.err = fmt.Errorf("trace: binary payload: %w", noEOF(err))
		return 0, sc.err
	}
	return tok, nil
}

// badVariable builds the out-of-universe decode error — kept out of
// the annotated hot scan so the boxing lives on the cold path.
func badVariable(v int64, numVars int) error {
	return fmt.Errorf("trace: binary payload: access to variable %d outside universe of %d", v, numVars)
}

// finish reads and verifies the fingerprint trailer exactly once.
func (sc *SeqScanner) finish() error {
	if sc.done {
		return io.EOF
	}
	var t [8]byte
	if _, err := io.ReadFull(sc.r, t[:]); err != nil {
		sc.err = fmt.Errorf("trace: binary trailer: %w", noEOF(err))
		return sc.err
	}
	if got := binary.LittleEndian.Uint64(t[:]); got != sc.hash.h {
		sc.err = fmt.Errorf("trace: binary trailer: fingerprint mismatch (stream %#x, trailer %#x)", sc.hash.h, got)
		return sc.err
	}
	sc.done = true
	return io.EOF
}

// Fingerprint returns the verified trailer fingerprint; valid only
// after Next returned io.EOF.
func (sc *SeqScanner) Fingerprint() uint64 { return sc.hash.h }

// drain decodes the scanner to completion (verifying the trailer) so
// the underlying reader is positioned at the next sequence.
func (sc *SeqScanner) drain() error {
	for {
		if _, err := sc.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// ReadBinary eagerly decodes a whole binary trace file into a
// Benchmark — the in-RAM path, for traces that fit (conversion back to
// text, the non-streaming CLI modes, tests). Accesses are appended as
// they decode, so a corrupt header cannot force an oversized up-front
// allocation.
func ReadBinary(name string, r io.Reader) (*Benchmark, error) {
	br, err := NewBinReader(r)
	if err != nil {
		return nil, err
	}
	b := &Benchmark{Name: name}
	for {
		sc, err := br.ScanSequence()
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		s := &Sequence{Names: sc.Names()}
		if n := min64(sc.Len(), 1<<20); n > 0 {
			s.Accesses = make([]Access, 0, n)
		}
		for {
			a, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			s.Accesses = append(s.Accesses, a)
		}
		s.refresh()
		b.Sequences = append(b.Sequences, s)
	}
}

// A BinFile is an opened on-disk binary trace: the mmap backend where
// the platform provides it (the file's pages then stream through the
// page cache and never count against the Go heap), a chunked buffered
// reader everywhere else. Close releases the mapping or file handle.
type BinFile struct {
	f    *os.File
	data []byte // non-nil iff mmapped
	br   *BinReader
}

// OpenBin opens a binary trace file for scanning.
func OpenBin(path string) (*BinFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	bf := &BinFile{f: f}
	if data, ok := mmapFile(f); ok {
		bf.data = data
		bf.br, err = NewBinReader(newByteSliceScanner(data))
	} else {
		bf.br, err = NewBinReader(bufio.NewReaderSize(f, 1<<20))
	}
	if err != nil {
		bf.Close()
		return nil, err
	}
	return bf, nil
}

// Reader returns the file's BinReader.
func (bf *BinFile) Reader() *BinReader { return bf.br }

// Mapped reports whether the file is memory-mapped (diagnostics only;
// the scanning API is identical either way).
func (bf *BinFile) Mapped() bool { return bf.data != nil }

// Close unmaps and closes the file.
func (bf *BinFile) Close() error {
	var err error
	if bf.data != nil {
		err = munmapFile(bf.data)
		bf.data = nil
	}
	if bf.f != nil {
		if cerr := bf.f.Close(); err == nil {
			err = cerr
		}
		bf.f = nil
	}
	return err
}

// byteSliceScanner is a minimal zero-copy byteScanner over an mmapped
// region (bytes.Reader would also do, but keeping it local avoids the
// interface growing methods the decoder must not use).
type byteSliceScanner struct {
	data []byte
	pos  int
}

func newByteSliceScanner(data []byte) *byteSliceScanner { return &byteSliceScanner{data: data} }

func (b *byteSliceScanner) ReadByte() (byte, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	c := b.data[b.pos]
	b.pos++
	return c, nil
}

func (b *byteSliceScanner) Read(p []byte) (int, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += n
	return n, nil
}
