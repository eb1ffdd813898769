package hitset

import (
	"adc/internal/approx"
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

// LiveTally drives an enumeration state's live tally the way the
// recursion does: Cover and Uncover move a distinct set out of and into
// uncov, and Loss scores uncov plus extra sets through state.loss.
type LiveTally struct{ st *state }

// NewLiveTally returns the root state of an enumeration under f: every
// distinct set uncovered.
func NewLiveTally(ev *evidence.Set, f approx.Func) LiveTally {
	return LiveTally{newState(ev, Options{Func: f})}
}

func (l LiveTally) Cover(k int)              { l.st.uncovRemove(k) }
func (l LiveTally) Uncover(k int)            { l.st.uncovAdd(k) }
func (l LiveTally) Uncovered() []int         { return l.st.uncov }
func (l LiveTally) Tally() *approx.Tally     { return &l.st.tally }
func (l LiveTally) Loss(extra []int) float64 { return l.st.loss(extra) }
