package evidence

import (
	"encoding/binary"
	"fmt"

	"adc/internal/bitset"
	"adc/internal/predicate"
)

// This file holds the evidence builders production no longer runs but
// the tests and benchmarks still need: NaiveBuilder is the correctness
// oracle, FastBuilder the per-pair baseline of the cluster-vs-fast
// benchmark gate. Both feed a map-based accumulator.

// accumulator deduplicates evidence bitsets during construction.
type accumulator struct {
	words    int
	buf      []byte
	index    map[string]int32
	out      *Set
	withVios bool
}

func newAccumulator(space *predicate.Space, withVios bool) *accumulator {
	words := bitset.WordsFor(space.Size())
	n := space.Rel.NumRows()
	a := &accumulator{
		words:    words,
		buf:      make([]byte, 8*words),
		index:    make(map[string]int32),
		withVios: withVios,
		out: &Set{
			Space:      space,
			TotalPairs: int64(n) * int64(n-1),
			NumRows:    n,
		},
	}
	if withVios {
		a.out.Vios = []map[int32]int64{}
	}
	return a
}

// add records the evidence bitset ev for ordered pair (i, j).
func (a *accumulator) add(ev bitset.Bits, i, j int) {
	for w, word := range ev {
		binary.LittleEndian.PutUint64(a.buf[8*w:], word)
	}
	idx, ok := a.index[string(a.buf)]
	if !ok {
		idx = int32(len(a.out.Sets))
		a.index[string(a.buf)] = idx
		a.out.Sets = append(a.out.Sets, ev.Clone())
		a.out.Counts = append(a.out.Counts, 0)
		if a.withVios {
			a.out.Vios = append(a.out.Vios, map[int32]int64{})
		}
	}
	a.out.Counts[idx]++
	if a.withVios {
		a.out.Vios[idx][int32(i)]++
		a.out.Vios[idx][int32(j)]++
	}
}

// NaiveBuilder evaluates each predicate on each ordered pair, as in
// FASTDC (Chu et al.). Quadratic in |D| and linear in |P| per pair.
type NaiveBuilder struct{}

// Build constructs Evi(D) by direct predicate evaluation.
func (NaiveBuilder) Build(space *predicate.Space, withVios bool) (*Set, error) {
	n := space.Rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("evidence: need at least 2 rows, have %d", n)
	}
	acc := newAccumulator(space, withVios)
	ev := bitset.New(space.Size())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ev.Reset()
			for id := 0; id < space.Size(); id++ {
				if space.Eval(id, i, j) {
					ev.Set(id)
				}
			}
			acc.add(ev, i, j)
		}
	}
	return acc.out, nil
}

// FastBuilder constructs the evidence set with bit-level operations over
// PLI ranks, one pair at a time, in the style of BFASTDC / DCFinder:
// single-tuple groups fold into a per-row mask, and each cross-tuple
// group's comparison code selects a precomputed operator mask that is
// OR-ed into the pair's evidence. It shares AutoBuilder's plan but none
// of its super-row collapse, tiling, or intern table.
type FastBuilder struct{}

// Build constructs Evi(D) with the per-pair kernel.
func (FastBuilder) Build(space *predicate.Space, withVios bool) (*Set, error) {
	n := space.Rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("evidence: need at least 2 rows, have %d", n)
	}
	p := preparePlan(space, nil)
	acc := newAccumulator(space, withVios)
	ev := make(bitset.Bits, p.words)
	for i := 0; i < n; i++ {
		base := p.rowMask[i]
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			// The first cross group is fused with the base-mask copy
			// (bitset.OrInto); the rest OR in place.
			if len(p.cross) == 0 {
				copy(ev, base)
			} else {
				base.OrInto(p.cross[0].mask(i, j), ev)
				for k := 1; k < len(p.cross); k++ {
					ev.Or(p.cross[k].mask(i, j))
				}
			}
			acc.add(ev, i, j)
		}
	}
	return acc.out, nil
}
