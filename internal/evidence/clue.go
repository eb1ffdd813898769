package evidence

import (
	"math/bits"

	"adc/internal/bitset"
)

// clueLayout packs a pair's evidence into a "clue" (the encoding of
// ECP, Xiao et al., PVLDB 2022): instead of one bit per predicate, one
// small field per independent source of evidence. Word 0 starts with
// the pair's base-mask id (the first tuple's single-tuple mask); each
// cross group then gets a field holding one code per distinct operator
// mask — 1 bit for a categorical eq/≠ group, 2 bits for a numeric
// lt/eq/gt one. No field straddles a word, so a group's contribution to
// a pair is a single word OR.
//
// Groups own disjoint predicates and codes number distinct masks, so a
// clue's expansion base ∪ ⋃ mask[g][code] is injective: distinct clues
// are distinct evidence sets, and deduplicating clues deduplicates
// evidence.
type clueLayout struct {
	words    int         // clue width in words (at least 1)
	baseBits uint64      // mask of the base-id field (word 0, shift 0)
	fields   []clueField // one per plan cross group, same order
}

// clueField is one cross group's slot in the clue.
type clueField struct {
	word       int
	shift      uint
	bits       uint64        // field mask before shifting
	lt, eq, gt uint64        // code<<shift for each comparison outcome
	masks      []bitset.Bits // code -> the group's operator mask
}

// newClueLayout lays out the clue for a plan. Codes are assigned in
// lt, eq, gt order, so the lt outcome (≠ on a categorical group) is
// code 0 and its OR is skipped by the kernel.
func newClueLayout(p *plan) *clueLayout {
	used := uint(bits.Len(uint(len(p.baseMask) - 1)))
	l := &clueLayout{baseBits: 1<<used - 1, fields: make([]clueField, len(p.cross))}
	word := 0
	for k := range p.cross {
		cg, f := &p.cross[k], &l.fields[k]
		code := func(m bitset.Bits) uint64 {
			for c, seen := range f.masks {
				if seen.Equal(m) {
					return uint64(c)
				}
			}
			f.masks = append(f.masks, m)
			return uint64(len(f.masks) - 1)
		}
		lt, eq, gt := code(cg.maskLt), code(cg.maskEq), code(cg.maskGt)
		width := uint(bits.Len(uint(len(f.masks) - 1)))
		if used+width > 64 {
			word, used = word+1, 0
		}
		f.word, f.shift, f.bits = word, used, 1<<width-1
		f.lt, f.eq, f.gt = lt<<used, eq<<used, gt<<used
		used += width
	}
	l.words = word + 1
	return l
}

// expand writes the evidence set of clue c into ev (the plan's
// predicate width).
func (l *clueLayout) expand(p *plan, c []uint64, ev bitset.Bits) {
	copy(ev, p.baseMask[c[0]&l.baseBits])
	for k := range l.fields {
		f := &l.fields[k]
		ev.Or(f.masks[c[f.word]>>f.shift&f.bits])
	}
}
