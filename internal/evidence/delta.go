package evidence

import (
	"errors"
	"fmt"

	"adc/internal/bitset"
	"adc/internal/pli"
	"adc/internal/predicate"
)

// ErrSpaceChanged reports that the predicate space of the grown relation
// does not structurally match the cached evidence's space. The 30%
// shared-values rule makes predicate.Build data-dependent, so an append
// can add or remove cross-column predicates; when it does, the cached
// bitsets no longer mean the same thing and the caller must rebuild from
// scratch.
var ErrSpaceChanged = errors.New("evidence: predicate space structure changed across append")

// DeltaStats describes one incremental maintenance step.
type DeltaStats struct {
	OldRows      int   // rows covered by the cached set
	NewRows      int   // rows after the append
	AppendedRows int   // NewRows - OldRows
	Parts        int   // signature parts holding appended rows
	Pairs        int64 // ordered pairs the delta pass accounted for
}

// ApplyDelta derives the evidence set of the grown relation underlying
// space from s, the cached evidence of that relation's first s.NumRows
// rows. An append of k rows touches only the 2·k·(n−k) cross pairs and
// the k·(k−1) new-new pairs, so the delta reuses the super-row
// machinery of AutoBuilder — rows are interned by signature, each
// signature is split at the append boundary into an old part and a new
// part (members of a part are pairwise interchangeable and uniformly
// old or new), and one representative pair per part pair yields the
// evidence, multiplicity, and uniform per-tuple vios of the whole
// block — instead of re-running the O(n²) build.
//
// space must be the predicate space of the post-append relation and
// structurally equal to s.Space (ErrSpaceChanged otherwise); store, as
// in the builders, optionally supplies cached PLIs. s is not modified:
// the result is a fresh Set sharing no mutable state, bit-identical
// (sets, counts, vios) to a from-scratch build, with vios maintained
// exactly when s has them. Appending zero rows returns s itself.
func (s *Set) ApplyDelta(space *predicate.Space, store *pli.Store) (*Set, *DeltaStats, error) {
	if s == nil || s.Space == nil {
		return nil, nil, errors.New("evidence: delta base has no predicate space")
	}
	old := s.NumRows
	n := space.Rel.NumRows()
	if old < 2 {
		return nil, nil, fmt.Errorf("evidence: delta base covers %d rows, need at least 2", old)
	}
	if n < old {
		return nil, nil, fmt.Errorf("evidence: relation has %d rows, fewer than the delta base's %d", n, old)
	}
	if s.TotalPairs != int64(old)*int64(old-1) {
		return nil, nil, errors.New("evidence: delta base is sampled or partial")
	}
	if !s.Space.SameStructure(space) {
		return nil, nil, ErrSpaceChanged
	}
	st := &DeltaStats{OldRows: old, NewRows: n, AppendedRows: n - old}
	if n == old {
		return s, st, nil
	}

	p := preparePlan(space, store)

	// Intern every row's super-row signature (single-tuple mask plus the
	// per-group comparison codes, as in prepareClusters), splitting each
	// signature's members at the append boundary.
	g := len(p.cross)
	sigWords := p.words + g
	sigs := newInternTable(sigWords, n)
	sig := make([]uint64, sigWords)
	var oldMem, newMem [][]int32
	for i := 0; i < n; i++ {
		copy(sig, p.rowMask[i])
		for c := range p.cross {
			cg := &p.cross[c]
			sig[p.words+c] = uint64(uint32(cg.ra[i])) | uint64(uint32(cg.rb[i]))<<32
		}
		idx, isNew := sigs.intern(sig, bitset.HashWords(sig))
		if isNew {
			oldMem = append(oldMem, nil)
			newMem = append(newMem, nil)
		}
		if i < old {
			oldMem[idx] = append(oldMem[idx], int32(i))
		} else {
			newMem[idx] = append(newMem[idx], int32(i))
		}
	}
	type part struct {
		rep     int32
		members []int32
		isNew   bool
	}
	parts := make([]part, 0, sigs.len()+8)
	var newParts []int
	for k := 0; k < sigs.len(); k++ {
		if len(oldMem[k]) > 0 {
			parts = append(parts, part{rep: oldMem[k][0], members: oldMem[k]})
		}
		if len(newMem[k]) > 0 {
			newParts = append(newParts, len(parts))
			parts = append(parts, part{rep: newMem[k][0], members: newMem[k], isNew: true})
		}
	}
	st.Parts = len(newParts)

	// Accumulate the delta in its own small table — keyed and deduped
	// only over the evidences the new pairs actually produce — instead of
	// seeding a table with every cached distinct set. The cached side is
	// reconciled afterwards in one streaming scan, so the per-append cost
	// tracks the delta, not the (possibly huge) distinct-set count.
	dt := newInternTable(p.words, 64)
	withVios := s.HasVios()
	var dtVios []map[int32]int64
	dtViosAt := func(idx int32) map[int32]int64 {
		for int(idx) >= len(dtVios) {
			dtVios = append(dtVios, nil)
		}
		if dtVios[idx] == nil {
			dtVios[idx] = make(map[int32]int64)
		}
		return dtVios[idx]
	}

	ev := make(bitset.Bits, p.words)
	pairEv := func(i, j int32) bitset.Bits {
		base := p.rowMask[i]
		if len(p.cross) == 0 {
			copy(ev, base)
		} else {
			base.OrInto(p.cross[0].mask(int(i), int(j)), ev)
			for c := 1; c < len(p.cross); c++ {
				ev.Or(p.cross[c].mask(int(i), int(j)))
			}
		}
		return ev
	}
	// addBlock folds the ordered pair block a→b (a ≠ b): every member
	// of a paired with every member of b shares the representatives'
	// evidence, each a-member is the first tuple of wb pairs, each
	// b-member the second tuple of wa pairs.
	addBlock := func(a, b *part) {
		wa, wb := int64(len(a.members)), int64(len(b.members))
		idx := dt.add(pairEv(a.rep, b.rep), wa*wb)
		st.Pairs += wa * wb
		if withVios {
			sv := dtViosAt(idx)
			for _, t := range a.members {
				sv[t] += wb
			}
			for _, t := range b.members {
				sv[t] += wa
			}
		}
	}
	for _, pi := range newParts {
		np := &parts[pi]
		if w := int64(len(np.members)); w > 1 {
			// Within-part ordered pairs: w(w−1) of them, every member
			// participating in 2(w−1).
			idx := dt.add(pairEv(np.rep, np.rep), w*(w-1))
			st.Pairs += w * (w - 1)
			if withVios {
				sv := dtViosAt(idx)
				for _, t := range np.members {
					sv[t] += 2 * (w - 1)
				}
			}
		}
		for qi := range parts {
			q := &parts[qi]
			if qi == pi {
				continue
			}
			// New-first pairs np→q against every other part; old-first
			// pairs q→np only for old q — the reverse of a new-new
			// cross block is emitted when the outer loop reaches q.
			addBlock(np, q)
			if !q.isNew {
				addBlock(q, np)
			}
		}
	}

	// Reconcile: one sequential scan over the cached sets maps each delta
	// evidence to its existing index (small-table probes, no random walks
	// over a table sized to the full distinct-set count); unmatched delta
	// evidences become new sets, appended in first-appearance order so
	// the output ordering matches the seeded-table construction this
	// replaces. The result is copy-on-write throughout — s's counts and
	// vios are cloned, its set views shared (both sides treat them as
	// immutable) — so in-flight readers of s stay consistent.
	remap := make([]int32, dt.len())
	for k := range remap {
		remap[k] = -1
	}
	for k, set := range s.Sets {
		if idx := dt.find(set, bitset.HashWords(set)); idx >= 0 && remap[idx] < 0 {
			remap[idx] = int32(k)
		}
	}
	sets := make([]bitset.Bits, len(s.Sets), len(s.Sets)+dt.len())
	copy(sets, s.Sets)
	counts := make([]int64, len(s.Counts), len(s.Counts)+dt.len())
	copy(counts, s.Counts)
	var vios []map[int32]int64
	if withVios {
		vios = make([]map[int32]int64, len(s.Vios), len(s.Vios)+dt.len())
		for k, m := range s.Vios {
			cp := make(map[int32]int64, len(m)+2)
			for t, c := range m {
				cp[t] = c
			}
			vios[k] = cp
		}
	}
	for k := 0; k < dt.len(); k++ {
		target := remap[k]
		if target < 0 {
			target = int32(len(sets))
			// dt is sealed: its arena views are permanent, safe to share.
			sets = append(sets, bitset.Bits(dt.key(int32(k))))
			counts = append(counts, 0)
			if withVios {
				vios = append(vios, make(map[int32]int64))
			}
		}
		counts[target] += dt.counts[k]
		if withVios && int(k) < len(dtVios) && dtVios[k] != nil {
			sv := vios[target]
			for t, c := range dtVios[k] {
				sv[t] += c
			}
		}
	}

	res := &Set{
		Space:      space,
		Sets:       sets,
		Counts:     counts,
		TotalPairs: int64(n) * int64(n-1),
		NumRows:    n,
	}
	if withVios {
		res.Vios = vios
	}
	return res, st, nil
}
