package evidence

import (
	"adc/internal/bitset"
	"adc/internal/pli"
	"adc/internal/predicate"
)

// crossGroup is a cross-tuple operator group prepared for per-pair
// evaluation: ranks (or merged equality codes) plus the operator masks.
type crossGroup struct {
	ra, rb  []int32
	numeric bool
	card    int32       // number of distinct codes across ra ∪ rb
	maskLt  bitset.Bits // code a<b: {<, <=, !=}
	maskEq  bitset.Bits // code a=b: {=, <=, >=}
	maskGt  bitset.Bits // code a>b: {>, >=, !=}
}

// plan holds the precomputed single-tuple masks and cross-group
// rank/mask tables that the cluster kernel and the delta pass start
// from. Rows share few distinct single-tuple masks (2–49 on the paper's
// datasets at 300 rows), so each row carries the id of its mask
// instead of a copy.
type plan struct {
	baseID   []int32       // row -> index into baseMask
	baseMask []bitset.Bits // distinct single-tuple masks, first-appearance order
	cross    []crossGroup
	words    int // predicate bitset width
}

// preparePlan computes PLI ranks, operator masks, and single-tuple row
// masks for a predicate space. A non-nil store that covers the
// relation's columns supplies cached same-attribute indexes (and is
// populated for columns it has not built yet); otherwise indexes are
// built locally and discarded with the plan.
func preparePlan(space *predicate.Space, store *pli.Store) *plan {
	rel := space.Rel
	n := rel.NumRows()
	words := bitset.WordsFor(space.Size())

	if store != nil && !store.Covers(rel.Columns) {
		store = nil // e.g. a sampled relation: the cache does not apply
	}
	// PLI per column: collect the columns same-attribute groups need and
	// build their indexes in parallel up front (cold mines previously
	// built them one at a time on one core).
	need := []int{} // non-nil: an empty need set must not build all columns
	for gi := range space.Groups {
		if g := &space.Groups[gi]; g.Cross && g.A == g.B {
			need = append(need, g.A)
		}
	}
	var indexes []*pli.Index
	if store != nil {
		store.Warm(need, 0)
	} else {
		indexes = pli.BuildIndexes(rel.Columns, need, 0)
	}
	indexFor := func(col int) *pli.Index {
		if store != nil {
			return store.Index(col)
		}
		if indexes[col] == nil { // not in need: build on demand
			indexes[col] = pli.ForColumn(rel.Columns[col])
		}
		return indexes[col]
	}

	p := &plan{words: words}
	rowMask := make([]uint64, n*words) // row i: rowMask[i*words:(i+1)*words]
	for gi := range space.Groups {
		g := &space.Groups[gi]
		if !g.Cross {
			// Single-tuple group: fold into the per-row base masks.
			for i := 0; i < n; i++ {
				for _, id := range g.Members {
					if space.Eval(id, i, 0) { // second row ignored
						bitset.Bits(rowMask[i*words : (i+1)*words]).Set(id)
					}
				}
			}
			continue
		}
		cg := crossGroup{
			numeric: g.Numeric,
			maskLt:  make(bitset.Bits, words),
			maskEq:  make(bitset.Bits, words),
			maskGt:  make(bitset.Bits, words),
		}
		setOp := func(op predicate.Operator, masks ...bitset.Bits) {
			if id := g.ByOp[op]; id >= 0 {
				for _, m := range masks {
					m.Set(id)
				}
			}
		}
		setOp(predicate.Eq, cg.maskEq)
		setOp(predicate.Neq, cg.maskLt, cg.maskGt)
		if g.Numeric {
			setOp(predicate.Lt, cg.maskLt)
			setOp(predicate.Leq, cg.maskLt, cg.maskEq)
			setOp(predicate.Gt, cg.maskGt)
			setOp(predicate.Geq, cg.maskGt, cg.maskEq)
		}
		switch {
		case g.A == g.B:
			idx := indexFor(g.A)
			cg.ra, cg.rb = idx.ClusterOf, idx.ClusterOf
			cg.card = int32(idx.NumClusters)
		case g.Numeric:
			cg.ra, cg.rb = pli.MergedRanks(rel.Columns[g.A], rel.Columns[g.B])
			cg.card = maxCode(cg.ra, cg.rb) + 1
		default:
			cg.ra, cg.rb = pli.MergedCodes(rel.Columns[g.A], rel.Columns[g.B])
			cg.card = maxCode(cg.ra, cg.rb) + 1
		}
		p.cross = append(p.cross, cg)
	}
	masks := newInternTable(words, 16)
	p.baseID = make([]int32, n)
	for i := range p.baseID {
		m := rowMask[i*words : (i+1)*words]
		p.baseID[i], _ = masks.intern(m, bitset.HashWords(m))
	}
	p.baseMask = masks.sets()
	return p
}

// rowMask returns row i's single-tuple predicate mask.
func (p *plan) rowMask(i int) bitset.Bits { return p.baseMask[p.baseID[i]] }

// signatures assigns each row the id of its super-row signature, in
// first-appearance order, and returns the number of signatures. The
// signature is the row's base-mask id plus, per cross group, its code
// in both tuple roles: two rows with equal signatures satisfy exactly
// the same predicates against every third row and against each other,
// so they are interchangeable in both pair positions.
func (p *plan) signatures() (ids []int32, count int) {
	sig := make([]uint64, 1+len(p.cross))
	tab := newInternTable(len(sig), len(p.baseID))
	ids = make([]int32, len(p.baseID))
	for i := range ids {
		sig[0] = uint64(p.baseID[i])
		for k := range p.cross {
			cg := &p.cross[k]
			sig[1+k] = uint64(uint32(cg.ra[i])) | uint64(uint32(cg.rb[i]))<<32
		}
		ids[i], _ = tab.intern(sig, bitset.HashWords(sig))
	}
	return ids, tab.len()
}

// maxCode returns the largest code appearing in either slice (codes are
// dense, so max+1 is the cardinality of the merged domain).
func maxCode(ra, rb []int32) int32 {
	var m int32
	for _, c := range ra {
		if c > m {
			m = c
		}
	}
	for _, c := range rb {
		if c > m {
			m = c
		}
	}
	return m
}

// mask selects the operator mask the group contributes to the ordered
// pair (i, j).
func (cg *crossGroup) mask(i, j int) bitset.Bits {
	a, b := cg.ra[i], cg.rb[j]
	switch {
	case a == b:
		return cg.maskEq
	case a < b:
		return cg.maskLt
	default:
		return cg.maskGt
	}
}
