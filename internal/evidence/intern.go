package evidence

import (
	"slices"

	"adc/internal/bitset"
)

// internTable deduplicates fixed-width []uint64 keys — evidence clues,
// evidence bitsets, super-row signatures and single-tuple masks —
// without the per-key string allocation and
// byte-wise hashing of a map[string]int. Keys live contiguously in a
// single arena ([]uint64, one append target instead of one heap object
// per distinct set), the slot array is open-addressed with linear
// probing, and every entry's word-level hash (bitset.HashWords) is
// retained so both growth and cross-worker merging re-insert entries
// without touching the key bytes again unless the hash matches.
//
// The zero table is not ready for use; construct with newInternTable.
// Methods are not safe for concurrent use — each builder worker owns a
// private table, merged single-threaded afterwards.
type internTable struct {
	words  int      // key width; all keys have exactly this many words
	arena  []uint64 // key k occupies arena[k*words : (k+1)*words]
	hashes []uint64 // hash of key k, cached for growth and merging
	counts []int64  // caller-maintained multiplicity of key k
	slots  []int32  // open-addressing slot array; -1 marks empty
}

// internCapHint sizes a fresh evidence table. Distinct counts range
// from a handful on small relations to tens of thousands (7,887 on the
// mine-sample benchmark input, 18,188 on mine-enum, ~504k on adult at
// 2,000 rows); the table doubles as it fills, so the hint only trades
// a few early regrowths against the slot array every small build
// allocates. Entries keep insertion order whatever the slot count.
const internCapHint = 1 << 10

func newInternTable(words, capHint int) *internTable {
	size := 16
	for size < 2*capHint {
		size <<= 1
	}
	t := &internTable{
		words: words,
		slots: make([]int32, size),
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// len returns the number of distinct keys interned.
func (t *internTable) len() int { return len(t.counts) }

// key returns the arena-backed words of entry k. The view stays valid
// until the next intern call (the arena may be reallocated by append);
// after the table is sealed (no more interning) views are permanent.
func (t *internTable) key(k int32) []uint64 {
	return t.arena[int(k)*t.words : (int(k)+1)*t.words]
}

// intern returns the index of ev, inserting a copy into the arena if it
// was not present. h must be bitset.HashWords(ev).
func (t *internTable) intern(ev []uint64, h uint64) (idx int32, isNew bool) {
	mask := uint64(len(t.slots) - 1)
	pos := h & mask
	for {
		k := t.slots[pos]
		if k < 0 {
			idx = int32(len(t.counts))
			t.slots[pos] = idx
			t.arena = append(t.arena, ev...)
			t.hashes = append(t.hashes, h)
			t.counts = append(t.counts, 0)
			if 4*len(t.counts) >= 3*len(t.slots) {
				t.grow()
			}
			return idx, true
		}
		if t.hashes[k] == h && slices.Equal(t.key(k), ev) {
			return k, false
		}
		pos = (pos + 1) & mask
	}
}

// find returns the index of ev, or -1 if it was never interned. h must
// be bitset.HashWords(ev). The table is never full (intern grows at 3/4
// load), so the probe always terminates at an empty slot.
func (t *internTable) find(ev []uint64, h uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	pos := h & mask
	for {
		k := t.slots[pos]
		if k < 0 {
			return -1
		}
		if t.hashes[k] == h && slices.Equal(t.key(k), ev) {
			return k
		}
		pos = (pos + 1) & mask
	}
}

// add interns ev and adds cnt to its multiplicity.
func (t *internTable) add(ev []uint64, cnt int64) int32 {
	idx, _ := t.intern(ev, bitset.HashWords(ev))
	t.counts[idx] += cnt
	return idx
}

// grow doubles the slot array, re-placing entries by their cached
// hashes (key bytes are never re-read).
func (t *internTable) grow() {
	next := make([]int32, 2*len(t.slots))
	for i := range next {
		next[i] = -1
	}
	mask := uint64(len(next) - 1)
	for k, h := range t.hashes {
		pos := h & mask
		for next[pos] >= 0 {
			pos = (pos + 1) & mask
		}
		next[pos] = int32(k)
	}
	t.slots = next
}

// mergeFrom folds another table's entries and counts into t and
// returns, for each of other's indexes, the corresponding index in t —
// the word-level combine of worker-local evidence tables. Both tables
// must have the same key width.
func (t *internTable) mergeFrom(other *internTable) []int32 {
	remap := make([]int32, other.len())
	for k := range other.counts {
		idx, _ := t.intern(other.key(int32(k)), other.hashes[k])
		t.counts[idx] += other.counts[k]
		remap[k] = idx
	}
	return remap
}

// sets exposes the arena as one bitset.Bits view per distinct key. The
// views alias the arena — cheap, contiguous, and immutable once the
// table stops interning.
func (t *internTable) sets() []bitset.Bits {
	out := make([]bitset.Bits, t.len())
	for k := range out {
		out[k] = bitset.Bits(t.key(int32(k)))
	}
	return out
}
