package evidence_test

import (
	"fmt"
	"sync"
	"testing"

	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// Evidence-stage benchmarks. The CI evidence gate compares
// BenchmarkEvidenceFastAdult with BenchmarkEvidenceClusterAdult and the
// delta gate BenchmarkEvidenceDeltaScratch with
// BenchmarkEvidenceDeltaDelta (BENCH_evidence.json and BENCH_delta.json
// record the ratios, min of 3 runs). The "Cluster" benchmarks run
// AutoBuilder single-threaded so the gates compare algorithms, not core
// counts.

const benchSeed = 1

func benchSpace(b *testing.B, name string, rows int) *predicate.Space {
	b.Helper()
	d, err := datagen.ByName(name, rows, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return predicate.Build(d.Rel, predicate.DefaultOptions())
}

// builder is what every evidence builder, test-only or not, provides.
type builder interface {
	Build(*predicate.Space, bool) (*evidence.Set, error)
}

func benchBuild(b *testing.B, bld builder, name string, rows int) {
	space := benchSpace(b, name, rows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(space, false); err != nil {
			b.Fatal(err)
		}
	}
}

// Stock is numeric and near-unique: the worst case for the cluster
// kernel (almost no signature compression).
func BenchmarkEvidenceNaive(b *testing.B) { benchBuild(b, evidence.NaiveBuilder{}, "stock", 200) }
func BenchmarkEvidenceFast(b *testing.B)  { benchBuild(b, evidence.FastBuilder{}, "stock", 200) }
func BenchmarkEvidenceCluster(b *testing.B) {
	benchBuild(b, evidence.AutoBuilder{Workers: 1}, "stock", 200)
}
func BenchmarkEvidenceAuto(b *testing.B) { benchBuild(b, evidence.AutoBuilder{}, "stock", 200) }

// The adult dataset is categorical and equal-heavy — the workload class
// the cluster kernel targets (super-rows collapse, rank runs are long).
// The CI evidence gate requires cluster ≥ 2x fast here.
func BenchmarkEvidenceFastAdult(b *testing.B) { benchBuild(b, evidence.FastBuilder{}, "adult", 200) }
func BenchmarkEvidenceClusterAdult(b *testing.B) {
	benchBuild(b, evidence.AutoBuilder{Workers: 1}, "adult", 200)
}

// deltaBenchOnce builds the incremental-maintenance gate workload once:
// adult at 2000 rows with a 1% append (20 rows duplicating existing
// rows, so every appended value already occurs and the grown predicate
// space keeps the base structure — ApplyDelta never falls back). The
// fixture holds the base evidence and the grown space; the two
// benchmarks below then time the two ways of reaching the grown
// relation's evidence.
type deltaBenchFixture struct {
	space *predicate.Space // grown relation's predicate space
	prev  *evidence.Set    // base (pre-append) evidence
}

var deltaBenchOnce = sync.OnceValues(func() (*deltaBenchFixture, error) {
	d, err := datagen.ByName("adult", 2000, benchSeed)
	if err != nil {
		return nil, err
	}
	base := d.Rel
	recs := make([][]string, 20)
	for i := range recs {
		rec := make([]string, len(base.Columns))
		for j, c := range base.Columns {
			rec[j] = c.ValueString(i)
		}
		recs[i] = rec
	}
	grown, err := base.AppendRows(recs)
	if err != nil {
		return nil, err
	}
	popts := predicate.DefaultOptions()
	prev, err := evidence.AutoBuilder{Workers: 1}.Build(predicate.Build(base, popts), false)
	if err != nil {
		return nil, err
	}
	space := predicate.Build(grown, popts)
	if _, _, err := prev.ApplyDelta(space, nil); err != nil {
		return nil, fmt.Errorf("delta fixture is not delta-maintainable: %w", err)
	}
	return &deltaBenchFixture{space: space, prev: prev}, nil
})

// The delta gate requires the incremental path ≥ 5x the scratch
// rebuild; the differential suite in this package proves the two
// outputs identical.
func BenchmarkEvidenceDeltaScratch(b *testing.B) {
	fx, err := deltaBenchOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (evidence.AutoBuilder{Workers: 1}).Build(fx.space, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvidenceDeltaDelta(b *testing.B) {
	fx, err := deltaBenchOnce()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fx.prev.ApplyDelta(fx.space, nil); err != nil {
			b.Fatal(err)
		}
	}
}
