package hitset

import (
	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
)

// tupleCount is one entry of a distinct evidence set's vios map.
type tupleCount struct {
	t int32
	c int64
}

// Evaluator moves distinct evidence sets in and out of approx.Tally
// values, so that enumeration scores every DC through approx.Func.Loss
// without rebuilding a tally per evaluation. The vios maps are
// flattened into slices once, and only when the function reads
// per-tuple participation. It is shared by ADCEnum/MMCS (this package)
// and the SearchMC baseline (package searchmc), so both sides of the
// paper's Figure 6 comparison pay the same per-evaluation cost.
//
// An Evaluator is bound to one evidence set and is not safe for
// concurrent use; the parallel enumerator gives each worker its own.
type Evaluator struct {
	ev *evidence.Set
	f  approx.Func

	// viosList[k] is ev.Vios[k] as (tuple, participation) pairs; nil
	// unless f needs vios and ev has them over at least one row.
	viosList [][]tupleCount
	// scratch is LossOf's tally, empty between calls.
	scratch approx.Tally
}

// NewEvaluator builds an evaluator for the approximation function over
// the evidence set. A nil function is allowed for exact (MMCS) runs,
// which never evaluate a loss.
func NewEvaluator(ev *evidence.Set, f approx.Func) *Evaluator {
	e := &Evaluator{ev: ev, f: f}
	if f != nil && f.NeedsVios() && ev.HasVios() && ev.NumRows > 0 {
		e.viosList = make([][]tupleCount, len(ev.Sets))
		for k, m := range ev.Vios {
			list := make([]tupleCount, 0, len(m))
			for t, c := range m {
				list = append(list, tupleCount{t, c})
			}
			e.viosList[k] = list
		}
	}
	e.scratch = e.newTally()
	return e
}

// newTally returns the empty tally of the evidence set: no violating
// pairs, PerTuple allocated when the function reads it.
func (e *Evaluator) newTally() approx.Tally {
	t := approx.Tally{TotalPairs: e.ev.TotalPairs, Rows: e.ev.NumRows}
	if e.viosList != nil {
		t.PerTuple = make([]int64, e.ev.NumRows)
	}
	return t
}

// add counts distinct set k's pairs as violating in t.
func (e *Evaluator) add(t *approx.Tally, k int) {
	t.Pairs += e.ev.Counts[k]
	if e.viosList == nil {
		return
	}
	for _, tc := range e.viosList[k] {
		if t.PerTuple[tc.t] == 0 {
			t.Involved++
		}
		t.PerTuple[tc.t] += tc.c
	}
}

// remove reverses add(t, k).
func (e *Evaluator) remove(t *approx.Tally, k int) {
	t.Pairs -= e.ev.Counts[k]
	if e.viosList == nil {
		return
	}
	for _, tc := range e.viosList[k] {
		t.PerTuple[tc.t] -= tc.c
		if t.PerTuple[tc.t] == 0 {
			t.Involved--
		}
	}
}

// addAll adds every set of b to t.
func (e *Evaluator) addAll(t *approx.Tally, b bitset.Bits) {
	b.ForEach(func(k int) { e.add(t, k) })
}

// removeAll reverses addAll(t, b).
func (e *Evaluator) removeAll(t *approx.Tally, b bitset.Bits) {
	b.ForEach(func(k int) { e.remove(t, k) })
}

// LossOf returns 1 − f for the DC whose uncovered distinct sets are
// exactly setIdxs, in any order.
func (e *Evaluator) LossOf(setIdxs []int) float64 {
	for _, k := range setIdxs {
		e.add(&e.scratch, k)
	}
	l := e.f.Loss(&e.scratch)
	for _, k := range setIdxs {
		e.remove(&e.scratch, k)
	}
	return l
}

// lossWith returns 1 − f for t with the (disjoint) extra sets added,
// and leaves t as it was.
func (e *Evaluator) lossWith(t *approx.Tally, extra bitset.Bits) float64 {
	e.addAll(t, extra)
	l := e.f.Loss(t)
	e.removeAll(t, extra)
	return l
}
