package hitset_test

import (
	"math/rand"
	"strings"
	"testing"

	"adc/internal/approx"
	"adc/internal/evidence"
	"adc/internal/hitset"
)

// TestLiveTallyMatchesTallyOf runs random cover/uncover sequences on the
// enumerator's live tally. After every step the tally, and the loss of
// uncov plus a random extra list, must equal what approx.TallyOf builds
// from scratch — for all four built-in functions on evidence with vios,
// and for the pair-based ones on the same evidence without vios.
func TestLiveTallyMatchesTallyOf(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 60; trial++ {
		ev, _ := randomVioInstance(r)
		noVios := *ev
		noVios.Vios = nil
		for _, f := range fuzzFuncs {
			checkLiveTally(t, r, ev, f)
		}
		for _, f := range []approx.Func{approx.F1{}, approx.F1Adjusted{Z: 1.2}} {
			checkLiveTally(t, r, &noVios, f)
		}
	}
}

func checkLiveTally(t *testing.T, r *rand.Rand, ev *evidence.Set, f approx.Func) {
	t.Helper()
	live := hitset.NewLiveTally(ev, f)
	covered := map[int]bool{}
	for step := 0; step < 40; step++ {
		k := r.Intn(ev.Distinct())
		if covered[k] {
			live.Uncover(k)
		} else {
			live.Cover(k)
		}
		covered[k] = !covered[k]

		uncov := append([]int(nil), live.Uncovered()...)
		want := approx.TallyOf(ev, uncov)
		got := live.Tally()
		if got.Pairs != want.Pairs || got.TotalPairs != want.TotalPairs || got.Rows != want.Rows {
			t.Fatalf("%s step %d: live tally %+v, from scratch %+v", f.Name(), step, got, want)
		}
		if f.NeedsVios() {
			if got.Involved != want.Involved || len(got.PerTuple) != len(want.PerTuple) {
				t.Fatalf("%s step %d: involved %d/%d tuples, from scratch %d/%d",
					f.Name(), step, got.Involved, len(got.PerTuple), want.Involved, len(want.PerTuple))
			}
			for tup := range want.PerTuple {
				if got.PerTuple[tup] != want.PerTuple[tup] {
					t.Fatalf("%s step %d: tuple %d participates in %d pairs, from scratch %d",
						f.Name(), step, tup, got.PerTuple[tup], want.PerTuple[tup])
				}
			}
		}
		var extra []int
		for k := range covered {
			if covered[k] && r.Intn(2) == 0 {
				extra = append(extra, k)
			}
		}
		if l, w := live.Loss(extra), f.Loss(approx.TallyOf(ev, append(uncov, extra...))); l != w {
			t.Fatalf("%s step %d: loss of uncov+%v = %v, from scratch %v", f.Name(), step, extra, l, w)
		}
		if l, w := live.Loss(nil), f.Loss(want); l != w {
			t.Fatalf("%s step %d: loss = %v after extra, from scratch %v", f.Name(), step, l, w)
		}
	}
}

// TestTupleFuncsWithoutViosPanic keeps approx's contract inside the
// enumerator: f2 or greedy f3 over evidence built without vios panics
// with a message naming vios, instead of scoring every DC 0.
func TestTupleFuncsWithoutViosPanic(t *testing.T) {
	ev, _ := randomVioInstance(rand.New(rand.NewSource(92)))
	ev.Vios = nil
	for _, f := range []approx.Func{approx.F2{}, approx.GreedyF3{}} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic without vios", f.Name())
				}
				if s, _ := r.(string); !strings.Contains(s, "vios") {
					t.Fatalf("%s: unhelpful panic: %v", f.Name(), r)
				}
			}()
			hitset.NewLiveTally(ev, f).Loss(nil)
		}()
	}
}
