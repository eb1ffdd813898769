package violation

import (
	"math/rand"
	"testing"

	"adc/internal/datagen"
	"adc/internal/predicate"
)

// benchPlanDC measures one DC under one execution shape on the dirtied
// adult dataset against a warm checker — the serving steady state,
// where indexes and compiled plans amortize across requests. The
// BenchmarkPlan* family feeds BENCH_planner.json; its headline ratio
// BenchmarkPlanMultiPredBinary / BenchmarkPlanMultiPred is the
// planner-vs-binary speedup the CI gate enforces (≥ 2x), on a DC the
// binary heuristic can only scan (no equality predicate) but the
// planner drives through a sorted-rank range probe.
func benchPlanDC(b *testing.B, path, dc string) {
	d, err := datagen.ByName("adult", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rel := datagen.AddNoise(d.Rel, datagen.Spread, 0.01, rng)
	spec, err := predicate.ParseDCSpec(dc)
	if err != nil {
		b.Fatal(err)
	}
	specs := []predicate.DCSpec{spec}
	checker := NewChecker(rel)
	// Cap the reported pair list: these DCs violate on ~10⁵ of the 4M
	// ordered pairs, and materializing every one would measure pair-list
	// collection instead of plan execution (counts stay exact either way).
	opts := forced(path, Options{MaxPairs: 64})
	if _, err := checker.Check(specs, opts); err != nil {
		b.Fatal(err) // warm: indexes built, plan compiled
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.Check(specs, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Results[0].Violations == 0 {
			b.Fatal("no violations; benchmark is vacuous")
		}
	}
}

// benchPlanMultiPredDC is the gate workload: order predicates only, so
// the binary heuristic's answer is always the full O(n²) scan, while
// the planner's histogram-exact selectivities find the cross-column
// driver (capital loss spans [0,2k), gain [0,5k), so P(loss > gain) ≈
// 0.2 — the generic "order ≈ 0.5" guess would have missed it) and
// probe only a fifth of the pairs, refuting with the residuals.
const benchPlanMultiPredDC = "not(t.CapitalLoss > t'.CapitalGain and t.Age <= t'.Age" +
	" and t.Fnlwgt >= t'.Fnlwgt and t.HoursPerWeek < t'.HoursPerWeek)"

func BenchmarkPlanEqJoin(b *testing.B) {
	benchPlanDC(b, PathAuto, "not(t.Education = t'.Education and t.EducationNum != t'.EducationNum)")
}

func BenchmarkPlanRangeProbe(b *testing.B) {
	benchPlanDC(b, PathAuto, "not(t.EducationNum > t'.EducationNum and t.Age <= t'.Age)")
}

func BenchmarkPlanResidual(b *testing.B) {
	benchPlanDC(b, PathAuto, "not(t.Education = t'.Education and t.Age <= t'.Age and t.Fnlwgt >= t'.Fnlwgt)")
}

func BenchmarkPlanMultiPred(b *testing.B)       { benchPlanDC(b, PathAuto, benchPlanMultiPredDC) }
func BenchmarkPlanMultiPredBinary(b *testing.B) { benchPlanDC(b, pathBinary, benchPlanMultiPredDC) }
