package trace

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The tokenizer and name table that every text path runs on: request
// traces (ParseSequence), the text format (Parse) and the token lists
// of NewNamedSequence and NewNamedSequenceWithUniverse.
//
// Tokens are separated by ASCII whitespace, or, where unicodeSpaces is
// set (request traces, as strings.Fields splits them), by any rune
// unicode.IsSpace accepts.

// spaceByte marks the ASCII whitespace bytes.
var spaceByte = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

//rtm:hotpath
func asciiSpace(c byte) bool { return spaceByte[c] != 0 }

// spaceWidth returns the byte width of the non-ASCII space that starts
// s, or 0 when none does (always, without unicodeSpaces).
//
//rtm:hotpath
func spaceWidth(s string, unicodeSpaces bool) int {
	if !unicodeSpaces {
		return 0
	}
	if r, w := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// skipSpace returns the position of the first non-space byte of text at
// or after pos.
//
//rtm:hotpath
func skipSpace(text string, pos int, unicodeSpaces bool) int {
	for pos < len(text) {
		if c := text[pos]; c < utf8.RuneSelf {
			if !asciiSpace(c) {
				break
			}
			pos++
		} else if w := spaceWidth(text[pos:], unicodeSpaces); w > 0 {
			pos += w
		} else {
			break
		}
	}
	return pos
}

// field returns the bounds [i, j) of the first token of text at or after
// pos, with i == j == len(text) when none is left.
//
//rtm:hotpath
func field(text string, pos int, unicodeSpaces bool) (i, j int) {
	i = skipSpace(text, pos, unicodeSpaces)
	return i, tokenEnd(text, i, unicodeSpaces)
}

// tokenEnd returns the end of the token that starts at text[i]. It reads
// eight bytes at a time up to the first byte below '!' or outside ASCII,
// which ends the token unless it is a control character or a non-ASCII
// rune that is not a space.
//
//rtm:hotpath
func tokenEnd(text string, i int, unicodeSpaces bool) int {
	j := i
	for ; j+8 <= len(text); j += 8 {
		x := word(text, j)
		if stop := ((x-'!'*lsbs)&^x | x) & msbs; stop != 0 {
			j += bits.TrailingZeros64(stop) / 8
			break
		}
	}
	for ; j < len(text); j++ {
		c := text[j]
		if c < utf8.RuneSelf && asciiSpace(c) || c >= utf8.RuneSelf && spaceWidth(text[j:], unicodeSpaces) > 0 {
			break
		}
	}
	return j
}

const (
	lsbs = 0x0101010101010101 // the low bit of each byte of a word
	msbs = 0x8080808080808080 // the high bit of each byte of a word
)

// word returns the eight bytes of s at k as a little-endian word; the
// compiler makes it one load.
//
//rtm:hotpath
func word(s string, k int) uint64 {
	s = s[k : k+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// countTokens returns the number of tokens in text. It classifies eight
// bytes at a time and counts the non-space bytes that follow a space.
//
//rtm:hotpath
func countTokens(text string, unicodeSpaces bool) int {
	n, k := 0, 0
	gap := uint64(msbs & 0xff) // the high bit of byte 0 when the byte before it is a space
	for ; k+8 <= len(text); k += 8 {
		x := word(text, k)
		if unicodeSpaces && x&msbs != 0 {
			return countFields(text)
		}
		space := spaces(x)
		n += bits.OnesCount64(^space & msbs & (space<<8 | gap))
		gap = space >> 56
	}
	for ; k < len(text); k++ {
		c := text[k]
		if unicodeSpaces && c >= utf8.RuneSelf {
			return countFields(text)
		}
		space := uint64(spaceByte[c]) << 7
		n += int((^space & gap) >> 7)
		gap = space
	}
	return n
}

// spaces returns the high bit of each byte of x that is ASCII whitespace:
// 0x20 or 0x09 to 0x0d. Each byte is tested alone, with no borrow
// between bytes.
//
//rtm:hotpath
func spaces(x uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	y := x ^ ' '*lsbs
	blank := ^((y&low7 + low7) | y)              // bytes equal to ' '
	below14 := ^((x | msbs) - 14*lsbs)           // 7-bit bytes below 0x0e
	below9 := ^((x | msbs) - 9*lsbs)             // 7-bit bytes below 0x09
	return (blank | below14&^below9) &^ x & msbs // ASCII bytes only
}

// countFields counts the tokens of a text with non-ASCII bytes that may
// be spaces.
//
//rtm:hotpath
func countFields(text string) int {
	n := 0
	for i, j := field(text, 0, true); i < j; i, j = field(text, j, true) {
		n++
	}
	return n
}

// splitWrite splits the write mark "!" off a token.
//
//rtm:hotpath
func splitWrite(tok string) (name string, write bool) {
	if n := len(tok); n > 0 && tok[n-1] == '!' {
		return tok[:n-1], true
	}
	return tok, false
}

// nameTable numbers the distinct names of one sequence densely, in order
// of first appearance. It is an open-addressing table keyed by the
// name's bytes: linear probing over a power-of-two slot array that
// doubles at 3/4 load.
//
// The hash reads a name eight bytes at a time and mixes each word into
// the state with a 64x64->128-bit multiply, the way the runtime's
// fallback map hash (wyhash) does, under two keys drawn at random for
// each table: names a request chooses cannot be made to collide, as
// they cannot in Go's maps.
type nameTable struct {
	k1, k2 uint64
	slots  []nameSlot
	names  []string // by id
}

// nameKey is what a nameTable files a name under: its hash and, for a
// name of one to seven bytes, the name's bytes and length packed in one
// word (0 for other names), which settle equality without reading the
// name.
type nameKey struct {
	hash, short uint64
}

// nameSlot is one slot of a nameTable.
type nameSlot struct {
	key nameKey
	id  int // the name's id + 1; 0 marks an empty slot
}

// nameTables recycles name tables, so that a parse allocates no slots
// and only its final names.
var nameTables = sync.Pool{New: func() any {
	seed := maphash.MakeSeed()
	return &nameTable{
		k1:    maphash.String(seed, "k1"),
		k2:    maphash.String(seed, "k2"),
		slots: make([]nameSlot, 16),
	}
}}

// maxPooledSlots bounds the tables nameTables keeps, so that a parse of
// a few names does not clear the slots a huge sequence grew.
const maxPooledSlots = 1 << 12

// getNameTable returns an empty table; release it when done.
func getNameTable() *nameTable { return nameTables.Get().(*nameTable) }

// release empties t and returns it to nameTables; names the caller
// keeps must have been taken first.
func (t *nameTable) release() {
	if len(t.slots) <= maxPooledSlots {
		t.reset()
		nameTables.Put(t)
	}
}

// scan returns the bounds [i, j) of the first token of text at or after
// pos, with i == j == len(text) when none is left, and the key of its
// name: the token without a trailing write mark.
//
//rtm:hotpath
func (t *nameTable) scan(text string, pos int, unicodeSpaces bool) (i, j int, k nameKey) {
	i = skipSpace(text, pos, unicodeSpaces)
	if i+8 <= len(text) {
		// A token of up to seven bytes that an ASCII space ends, the
		// common case, is settled from one word: its end, write mark
		// and key.
		x := word(text, i)
		if stop := ((x-'!'*lsbs)&^x | x) & msbs; stop != 0 {
			if j = i + bits.TrailingZeros64(stop)/8; asciiSpace(text[j]) {
				n := j - i
				if n > 0 && text[j-1] == '!' {
					n--
				}
				w := x & (1<<(8*n) - 1)
				return i, j, nameKey{hash: t.mix(t.k1^uint64(n), w), short: w | uint64(n)<<56}
			}
		}
	}
	j = tokenEnd(text, i, unicodeSpaces)
	n := j - i
	if n > 0 && text[j-1] == '!' {
		n--
	}
	return i, j, t.keyAt(text, i, n)
}

// key returns the key of name.
//
//rtm:hotpath
func (t *nameTable) key(name string) nameKey { return t.keyAt(name, 0, len(name)) }

// keyAt returns the key of the name text[i:i+n]. A word may be read
// past the name, within text, and masked to it. The length seeds the
// hash, so a name of up to eight bytes costs one multiply.
//
//rtm:hotpath
func (t *nameTable) keyAt(text string, i, n int) nameKey {
	h := t.k1 ^ uint64(n)
	var short uint64
	for k := 0; k < n; k += 8 {
		var w uint64
		if i+k+8 <= len(text) {
			w = word(text, i+k)
		} else {
			for b := 0; i+k+b < len(text); b++ {
				w |= uint64(text[i+k+b]) << (8 * b)
			}
		}
		if r := n - k; r < 8 {
			w &= 1<<(8*r) - 1
			short = w | uint64(n)<<56 // used only when n < 8
		}
		h = t.mix(h, w)
	}
	if n >= 8 {
		short = 0
	}
	return nameKey{hash: h, short: short}
}

// mix folds x into the hash state h.
//
//rtm:hotpath
func (t *nameTable) mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(x^t.k1, h^t.k2)
	return hi ^ lo
}

// find returns the id of name, whose key is k, or -1.
//
//rtm:hotpath
func (t *nameTable) find(name string, k nameKey) int {
	mask := uint64(len(t.slots) - 1)
	for i := k.hash & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.id == 0 {
			return -1
		}
		if s.key == k && (k.short != 0 || t.names[s.id-1] == name) {
			return s.id - 1
		}
	}
}

// add numbers name, whose key is k and which find did not find, with
// the next id.
func (t *nameTable) add(name string, k nameKey) int {
	if 4*(len(t.names)+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]nameSlot, 2*len(old))
		for _, s := range old {
			if s.id != 0 {
				t.file(s)
			}
		}
	}
	t.names = append(t.names, name)
	t.file(nameSlot{key: k, id: len(t.names)})
	return len(t.names) - 1
}

// file puts s in the first free slot of its probe sequence.
func (t *nameTable) file(s nameSlot) {
	mask := uint64(len(t.slots) - 1)
	i := s.key.hash & mask
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// reset empties the table for the next sequence, keeping its storage
// but no name.
func (t *nameTable) reset() {
	clear(t.slots)
	clear(t.names)
	t.names = t.names[:0]
}

// takeNames returns the table's names, by id, in a slice of their
// number (nil for none). With clone, the names are copied into one new
// string, so that they do not keep the text they were cut from alive.
func (t *nameTable) takeNames(clone bool) []string {
	if len(t.names) == 0 {
		return nil
	}
	names := make([]string, len(t.names))
	if !clone {
		copy(names, t.names)
		return names
	}
	size := 0
	for _, n := range t.names {
		size += len(n)
	}
	var b strings.Builder
	b.Grow(size)
	for _, n := range t.names {
		b.WriteString(n)
	}
	all := b.String()
	for id, n := range t.names {
		names[id], all = all[:len(n)], all[len(n):]
	}
	return names
}
