package approx

import (
	"fmt"
	"math/rand"

	"adc/internal/bitset"
	"adc/internal/evidence"
)

// The checkers in this file verify the two axioms of a valid
// approximation function (Definitions 4.1 and 4.2) on concrete evidence
// sets, scoring each DC through the tally TallyOf builds from scratch.
// The property tests in approx_test.go run them on the built-in
// functions.

// CheckMonotonic verifies Definition 4.1 (monotonicity) on random
// chains of DCs: for hitting sets X ⊂ X′ (i.e. Sϕ ⊂ Sϕ′), the loss must
// not increase. It runs the given number of random trials and returns an
// error describing the first violation found.
func CheckMonotonic(f Func, ev *evidence.Set, trials int, rng *rand.Rand) error {
	p := ev.Space.Size()
	for trial := 0; trial < trials; trial++ {
		x := randomBits(rng, p, 1+rng.Intn(3))
		xp := x.Clone()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			xp.Set(rng.Intn(p))
		}
		lx := f.Loss(TallyOf(ev, ev.Uncovered(x)))
		lxp := f.Loss(TallyOf(ev, ev.Uncovered(xp)))
		if lxp > lx+1e-12 {
			return fmt.Errorf("approx: %s not monotonic: loss(%v) = %v < loss(%v) = %v",
				f.Name(), x, lx, xp, lxp)
		}
	}
	return nil
}

// CheckIndifference verifies Definition 4.2 (indifference to
// redundancy): two DCs violated by the same tuple pairs must receive the
// same score. Trials construct X′ ⊃ X by adding predicates that appear
// in no uncovered evidence set beyond those X already hits, so the
// uncovered multiset is unchanged; the loss must be identical.
func CheckIndifference(f Func, ev *evidence.Set, trials int, rng *rand.Rand) error {
	p := ev.Space.Size()
	for trial := 0; trial < trials; trial++ {
		x := randomBits(rng, p, 1+rng.Intn(4))
		unc := ev.Uncovered(x)
		// Find a predicate occurring in no uncovered set; adding it to X
		// changes Sϕ but not the violating pairs.
		redundant := -1
		for id := 0; id < p; id++ {
			if x.Test(id) {
				continue
			}
			hits := false
			for _, k := range unc {
				if ev.Sets[k].Test(id) {
					hits = true
					break
				}
			}
			if !hits {
				redundant = id
				break
			}
		}
		if redundant < 0 {
			continue // every predicate would change coverage; try again
		}
		xp := x.Clone()
		xp.Set(redundant)
		lx := f.Loss(TallyOf(ev, unc))
		lxp := f.Loss(TallyOf(ev, ev.Uncovered(xp)))
		if lx != lxp {
			return fmt.Errorf("approx: %s not indifferent to redundancy: %v vs %v",
				f.Name(), lx, lxp)
		}
	}
	return nil
}

// CheckProp53 verifies the bridge of Proposition 5.3 for f2: whenever
// 1 − f2 ≤ ε, also 1 − f1 ≤ 2ε; equivalently LossF1 ≤ 2 · LossF2 for
// every DC. (The paper proves the same for the exact f3; the greedy
// replacement of Figure 2 carries no such guarantee and is excluded.)
func CheckProp53(ev *evidence.Set, trials int, rng *rand.Rand) error {
	p := ev.Space.Size()
	for trial := 0; trial < trials; trial++ {
		x := randomBits(rng, p, 1+rng.Intn(4))
		tally := TallyOf(ev, ev.Uncovered(x))
		l1 := F1{}.Loss(tally)
		l2 := F2{}.Loss(tally)
		if l1 > 2*l2+1e-12 {
			return fmt.Errorf("approx: Prop 5.3 violated: loss f1 = %v > 2 · loss f2 = %v", l1, 2*l2)
		}
	}
	return nil
}

func randomBits(rng *rand.Rand, universe, k int) bitset.Bits {
	b := bitset.New(universe)
	for ; k > 0; k-- {
		b.Set(rng.Intn(universe))
	}
	return b
}
