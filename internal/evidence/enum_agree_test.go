package evidence_test

import (
	"testing"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/hitset"
	"adc/internal/predicate"
)

// TestEnumerationAgreesOnOracleEvidence checks evidence end to end
// through the stage that consumes it: ADCEnum over the oracle's
// evidence and over AutoBuilder's, serial and parallel, mines the same
// DC set with the same number of outputs. At 300 near-unique stock rows
// the super-pair count is past AutoBuilder's serial cutoff, so Workers 4
// really runs the parallel kernel. Set order differs between
// builders, so only order-independent results are compared.
func TestEnumerationAgreesOnOracleEvidence(t *testing.T) {
	d, err := datagen.ByName("stock", 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := predicate.Build(d.Rel, predicate.DefaultOptions())
	mine := func(ev *evidence.Set) (map[string]bool, hitset.Stats) {
		dcs := make(map[string]bool)
		st := hitset.EnumerateADC(ev, hitset.Options{
			Func: approx.F1{}, Epsilon: 0.01, MaxPredicates: 2, Workers: 1,
		}, func(hs bitset.Bits) { dcs[hs.Key()] = true })
		return dcs, st
	}
	naive, err := evidence.NaiveBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt := mine(naive)
	if len(want) == 0 {
		t.Fatal("oracle evidence mined nothing; test is vacuous")
	}
	for _, workers := range []int{1, 4} {
		ev, err := evidence.AutoBuilder{Workers: workers}.Build(space, false)
		if err != nil {
			t.Fatal(err)
		}
		got, st := mine(ev)
		if st.Outputs != wantSt.Outputs || len(got) != len(want) {
			t.Fatalf("workers=%d: %d outputs (%d distinct), oracle %d (%d)",
				workers, st.Outputs, len(got), wantSt.Outputs, len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("workers=%d: a DC mined over oracle evidence is missing", workers)
			}
		}
	}
}
