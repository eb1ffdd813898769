// Package approx implements the approximation functions of the paper
// (Section 5) behind a single interface, so that the enumeration
// algorithm (package hitset) takes the semantics of "approximate" as an
// input rather than hard-wiring one definition — the paper's central
// design point.
//
// A valid approximation function f : (D, Sϕ) → [0, 1] must be monotonic
// (Definition 4.1) and indifferent to redundancy (Definition 4.2). The
// enumerator works with the loss 1 − f(D, Sϕ), and a DC is an ADC when
// the loss is at most ε (Definition 4.4).
//
// Because the miner identifies a DC ϕ with the hitting set Ŝϕ of the
// evidence set, the loss of every function here is computed from a
// Tally of the *uncovered* distinct evidence sets — the violating tuple
// pairs. This makes indifference to redundancy structural: two DCs
// violated by the same pairs present identical tallies to Loss. The
// enumerators (packages hitset and searchmc) and the checker (package
// violation) all score DCs through Func.Loss, so each function has one
// body.
package approx

import (
	"fmt"
	"math"
	"slices"

	"adc/internal/bitset"
	"adc/internal/evidence"
)

// Tally is the violation tally of one DC: what its violating tuple
// pairs add up to. Every Func scores a DC from its tally alone, so two
// DCs violated by the same pairs receive the same score — indifference
// to redundancy (Definition 4.2) is structural.
//
// TallyOf builds a tally from scratch; the enumerators keep one live
// tally and move distinct evidence sets in and out of it as they are
// uncovered and covered.
type Tally struct {
	// Pairs is the number of violating ordered tuple pairs.
	Pairs int64
	// TotalPairs is |D|·(|D|−1), the number of ordered pairs.
	TotalPairs int64
	// Rows is |D|.
	Rows int
	// Involved is the number of tuples t with PerTuple[t] > 0.
	Involved int
	// PerTuple[t] is the number of violating pairs tuple t takes part
	// in, summed over the violating evidence sets' vios (Figure 2). It
	// is nil when the evidence set was built without vios.
	PerTuple []int64
}

// Func is a valid approximation function, presented as a loss.
// Implementations must be monotone: the tally of a sub-multiset of the
// violating pairs must never produce a larger loss.
type Func interface {
	// Name identifies the function ("f1", "f2", "f3-greedy", ...).
	Name() string
	// Loss returns 1 − f(D, Sϕ) ∈ [0, 1] for the DC with tally t. It
	// must not modify t: the enumerators pass their live tally.
	Loss(t *Tally) float64
	// NeedsVios reports whether the function reads t.PerTuple, which
	// needs an evidence set built with vios.
	NeedsVios() bool
}

// ForName returns the approximation function with the given name:
// "f1", "f2", or "f3" (the greedy algorithm of Figure 2).
func ForName(name string) (Func, error) {
	switch name {
	case "f1":
		return F1{}, nil
	case "f2":
		return F2{}, nil
	case "f3", "f3-greedy":
		return GreedyF3{}, nil
	}
	return nil, fmt.Errorf("approx: unknown approximation function %q (want f1, f2, or f3)", name)
}

// TallyOf builds the tally of the DC whose violating distinct evidence
// sets are uncovered (indexes into ev). PerTuple is filled when ev has
// vios.
func TallyOf(ev *evidence.Set, uncovered []int) *Tally {
	t := &Tally{TotalPairs: ev.TotalPairs, Rows: ev.NumRows}
	if ev.HasVios() {
		t.PerTuple = make([]int64, ev.NumRows)
	}
	for _, k := range uncovered {
		t.Pairs += ev.Counts[k]
		if t.PerTuple == nil {
			continue
		}
		for tup, c := range ev.Vios[k] {
			if t.PerTuple[tup] == 0 {
				t.Involved++
			}
			t.PerTuple[tup] += c
		}
	}
	return t
}

// LossOfHittingSet evaluates f's loss for the DC whose complement
// predicates are hs. Convenience for tests and one-off scoring; the
// enumerators maintain their tally incrementally instead.
func LossOfHittingSet(f Func, ev *evidence.Set, hs bitset.Bits) float64 {
	return f.Loss(TallyOf(ev, ev.Uncovered(hs)))
}

// F1 is the pair-based function of Kivinen and Mannila's g1, used by
// AFASTDC, BFASTDC and DCFinder to define ADCs:
//
//	f1(D, Sϕ) = |{(t, t') satisfying ϕ}| / (|D|·(|D|−1))
//
// Loss is the fraction of ordered tuple pairs violating the DC.
type F1 struct{}

// Name implements Func.
func (F1) Name() string { return "f1" }

// NeedsVios implements Func.
func (F1) NeedsVios() bool { return false }

// Loss implements Func.
func (F1) Loss(t *Tally) float64 {
	if t.TotalPairs == 0 {
		return 0
	}
	return float64(t.Pairs) / float64(t.TotalPairs)
}

// F2 is the tuple-based function of Kivinen and Mannila's g2:
//
//	f2(D, Sϕ) = |{t | no t' forms a violating pair with t}| / |D|
//
// Loss is the fraction of tuples involved in at least one violation.
// Requires vios.
type F2 struct{}

// Name implements Func.
func (F2) Name() string { return "f2" }

// NeedsVios implements Func.
func (F2) NeedsVios() bool { return true }

// Loss implements Func.
func (F2) Loss(t *Tally) float64 {
	if t.Rows == 0 {
		return 0
	}
	mustVios(t, "f2")
	return float64(t.Involved) / float64(t.Rows)
}

// GreedyF3 is the algorithm of Figure 2, standing in for the NP-hard
// cardinality-repair function f3 (computing f3 exactly for DCs is
// NP-hard, Livshits et al.; minimum vertex cover on the conflict graph
// is 2-approximable but needs the explicit pair list, which is quadratic
// in |D|). The greedy algorithm repeatedly takes the tuple participating
// in the most violations until the taken tuples cover the total
// violation count; Loss = |R| / |D|. Requires vios.
type GreedyF3 struct{}

// Name implements Func.
func (GreedyF3) Name() string { return "f3-greedy" }

// NeedsVios implements Func.
func (GreedyF3) NeedsVios() bool { return true }

// Loss implements Func.
func (GreedyF3) Loss(t *Tally) float64 {
	if t.Rows == 0 {
		return 0
	}
	mustVios(t, "f3")
	if t.Pairs == 0 {
		return 0
	}
	// SortTuples of Figure 2: v(t) = total participation of t in
	// violations of the candidate DC. The number of tuples taken depends
	// only on the multiset of participations, so ties need no order.
	order := make([]int64, 0, t.Involved)
	for _, v := range t.PerTuple {
		if v > 0 {
			order = append(order, v)
		}
	}
	slices.Sort(order)
	// Greedy selection, largest participation first: the covered count
	// may exceed Pairs because a violation between two selected tuples
	// is counted twice (see paper, Section 5).
	var covered int64
	removed := 0
	for i := len(order) - 1; i >= 0 && covered < t.Pairs; i-- {
		covered += order[i]
		removed++
	}
	return float64(removed) / float64(t.Rows)
}

// F1Adjusted is the sample-side function f1′ of Section 7.2:
//
//	f1′ = (1 − p̂) − z · sqrt(p̂(1 − p̂)/n)
//
// where p̂ is the violating-pair fraction on the sample and
// n = |V_J|·(|V_J|−1) the number of ordered pairs. Mining the sample
// with f1′ and threshold ε accepts a DC only when, with probability at
// least 1 − α, it is an ADC of the full database w.r.t. f1 and ε
// (Inequality 2). Z is the normal quantile z_{1−2α}; package sample
// provides SampleZ to compute it.
type F1Adjusted struct {
	Z float64
}

// Name implements Func.
func (F1Adjusted) Name() string { return "f1-adjusted" }

// NeedsVios implements Func.
func (F1Adjusted) NeedsVios() bool { return false }

// Loss implements Func. Loss = 1 − f1′ = p̂ + z·sqrt(p̂(1−p̂)/n),
// clamped to [0, 1].
func (a F1Adjusted) Loss(t *Tally) float64 {
	p := F1{}.Loss(t)
	n := float64(t.TotalPairs)
	if n == 0 {
		return 0
	}
	loss := p + a.Z*math.Sqrt(p*(1-p)/n)
	if loss > 1 {
		return 1
	}
	if loss < 0 {
		return 0
	}
	return loss
}

func mustVios(t *Tally, fn string) {
	if t.PerTuple == nil {
		panic("approx: " + fn + " requires an evidence set built with vios (per-tuple violation counts)")
	}
}
