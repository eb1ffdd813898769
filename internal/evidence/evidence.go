// Package evidence builds and represents the evidence set Evi(D) of the
// paper (Section 3): the bag {Sat(t, t') | t, t' ∈ D, t ≠ t'}, where
// Sat(t, t') is the set of predicates satisfied by the ordered tuple
// pair. Following the paper, each distinct predicate set is stored once
// together with its number of occurrences, and optionally with the
// per-tuple participation counts ("vios", Figure 2) that the f2 and
// greedy-f3 approximation functions consume.
//
// AutoBuilder is the one builder: bit-level evidence in the style of
// DCFinder (Pena et al.), the construction the paper adopts for its
// evidence component (Section 4.2, component 3), with rows collapsed
// into super-rows and the pair space tiled. Set.ApplyDelta maintains a
// built set across appends. The package tests keep FASTDC's per-pair,
// per-predicate build (Chu et al.) as the oracle.
package evidence

import (
	"adc/internal/bitset"
	"adc/internal/predicate"
)

// Set is the evidence set of a database: distinct Sat-sets with
// multiplicities over ordered pairs of distinct tuples.
type Set struct {
	Space      *predicate.Space
	Sets       []bitset.Bits // distinct evidence sets
	Counts     []int64       // multiplicity of each distinct set
	TotalPairs int64         // |D| * (|D|-1)
	NumRows    int

	// Vios, when built, stores for each distinct evidence set S the map
	// tuple -> number of ordered pairs with evidence S that the tuple
	// participates in (each pair contributes to both endpoints). This is
	// the vios structure of Figure 2.
	Vios []map[int32]int64
}

// FromSets builds an evidence set directly from bitsets and
// multiplicities, without a predicate space or relation. This supports
// using the enumeration algorithms of package hitset as generic
// (approximate) minimal-hitting-set enumerators, outside constraint
// discovery (Section 6 of the paper notes this generality). totalPairs
// is the loss denominator for pair-based functions; numRows the one for
// tuple-based functions (pass the sum of counts and 0 when these have
// no natural meaning).
func FromSets(sets []bitset.Bits, counts []int64, numRows int, totalPairs int64) *Set {
	return &Set{
		Sets:       sets,
		Counts:     counts,
		NumRows:    numRows,
		TotalPairs: totalPairs,
	}
}

// Distinct returns the number of distinct evidence sets (n in the
// paper's complexity analysis).
func (s *Set) Distinct() int { return len(s.Sets) }

// HasVios reports whether tuple participation counts were built.
func (s *Set) HasVios() bool { return s.Vios != nil }

// ViolationCount returns the number of ordered pairs whose evidence set
// has an empty intersection with the hitting set hs — the pairs
// violating the DC whose complement-predicate set is hs.
func (s *Set) ViolationCount(hs bitset.Bits) int64 {
	var v int64
	for k, ev := range s.Sets {
		if !ev.Intersects(hs) {
			v += s.Counts[k]
		}
	}
	return v
}

// Uncovered returns the indexes of distinct evidence sets with empty
// intersection with hs.
func (s *Set) Uncovered(hs bitset.Bits) []int {
	var out []int
	for k, ev := range s.Sets {
		if !ev.Intersects(hs) {
			out = append(out, k)
		}
	}
	return out
}

// CountOf returns the multiplicity of distinct set k.
func (s *Set) CountOf(k int) int64 { return s.Counts[k] }

// MemBytes estimates the heap footprint of the evidence set, for cache
// accounting: bitset words, multiplicities, and the vios maps at a
// nominal 16 bytes per entry.
func (s *Set) MemBytes() int64 {
	var b int64
	for _, ev := range s.Sets {
		b += int64(len(ev))*8 + 24
	}
	b += int64(len(s.Counts)) * 8
	for _, m := range s.Vios {
		b += int64(len(m))*16 + 48
	}
	return b
}
