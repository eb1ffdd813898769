package hitset

import (
	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
)

// EnumerateADCParallelForTest bypasses the Workers dispatch of
// EnumerateADC so tests can force the work-stealing machinery at any
// worker count — including 1, and on instances small enough that the
// auto heuristic would pick the sequential recursion.
var EnumerateADCParallelForTest = enumerateADCParallel

// ClampWorkersForTest exposes the Options.Workers bound: the field is
// client-reachable through dcserved mine requests, so tests pin that an
// absurd value cannot translate into goroutines.
var ClampWorkersForTest = clampWorkers

// LiveTally drives an enumeration state's live tally the way push and
// pop do: Cover and Uncover clear and set a distinct set's bit in the
// current frame's uncov and move the set through the tally, and Loss
// scores uncov plus extra sets through state.loss.
type LiveTally struct{ st *state }

// NewLiveTally returns the root state of an enumeration under f: every
// distinct set uncovered.
func NewLiveTally(ev *evidence.Set, f approx.Func) LiveTally {
	return LiveTally{newState(ev, Options{Func: f})}
}

func (l LiveTally) Cover(k int) {
	l.st.top().uncov.Clear(k)
	l.st.eval.remove(&l.st.tally, k)
}

func (l LiveTally) Uncover(k int) {
	l.st.top().uncov.Set(k)
	l.st.eval.add(&l.st.tally, k)
}

func (l LiveTally) Uncovered() []int     { return l.st.top().uncov.Slice() }
func (l LiveTally) Tally() *approx.Tally { return &l.st.tally }

func (l LiveTally) Loss(extra []int) float64 {
	b := bitset.New(len(l.st.sets))
	for _, k := range extra {
		b.Set(k)
	}
	return l.st.loss(b)
}
