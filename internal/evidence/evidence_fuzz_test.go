package evidence_test

import (
	"math/rand"
	"testing"

	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// fuzzRelation derives a random relation from the fuzz inputs: column
// count, dtype mix, row count, and value ranges all vary, with value
// ranges kept small enough that equality collisions (the interesting
// case for cluster collapse and evidence dedup) actually occur.
func fuzzRelation(r *rand.Rand, shape byte) *dataset.Relation {
	n := 2 + r.Intn(20)
	numCols := 1 + int(shape>>5)  // 1..8 columns
	wideDomain := shape&0x10 != 0 // occasionally near-unique values
	letters := []string{"a", "b", "c", "d"}
	cols := make([]*dataset.Column, 0, numCols)
	for c := 0; c < numCols; c++ {
		domain := 2 + r.Intn(4)
		if wideDomain && c == 0 {
			domain = 3 * n // mostly distinct
		}
		name := string(rune('A' + c))
		switch r.Intn(3) {
		case 0:
			vals := make([]string, n)
			for i := range vals {
				vals[i] = letters[r.Intn(len(letters))] + string(rune('0'+r.Intn(domain)))
			}
			cols = append(cols, dataset.NewStringColumn(name, vals))
		case 1:
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(r.Intn(domain))
			}
			cols = append(cols, dataset.NewIntColumn(name, vals))
		default:
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(r.Intn(domain)) / 2
			}
			cols = append(cols, dataset.NewFloatColumn(name, vals))
		}
	}
	return dataset.MustNewRelation("fuzz", cols)
}

// fuzzPredicateOptions varies the predicate-space shape: the operator
// mix follows from the dtypes, and the space structure from the
// single-tuple / cross-column toggles and the comparability threshold.
func fuzzPredicateOptions(shape byte) predicate.Options {
	opts := predicate.DefaultOptions()
	opts.SingleTuple = shape&1 != 0
	opts.CrossColumn = shape&2 != 0
	if shape&4 != 0 {
		opts.MinShared = 0.05 // admit more cross-column pairs
	}
	return opts
}

// FuzzBuildersAgree is the cross-builder equivalence property: on any
// relation and predicate space, AutoBuilder — at the data-driven and at
// fixed worker counts, and with its kernel pinned to small tiles — and
// the per-pair FastBuilder baseline produce the same evidence multiset,
// including per-tuple vios, as NaiveBuilder (the oracle). The seed
// corpus runs on every plain `go test`; `go test -fuzz=FuzzBuildersAgree`
// explores further.
func FuzzBuildersAgree(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, byte(seed*37))
	}
	f.Add(int64(99), byte(0x10)) // wide-domain, no single-tuple/cross-column
	f.Add(int64(7), byte(0xff))  // max columns, all toggles
	f.Fuzz(func(t *testing.T, seed int64, shape byte) {
		r := rand.New(rand.NewSource(seed))
		rel := fuzzRelation(r, shape)
		space := predicate.Build(rel, fuzzPredicateOptions(shape))
		withVios := shape&8 != 0

		naive, err := evidence.NaiveBuilder{}.Build(space, withVios)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		builders := []struct {
			name string
			b    builder
		}{
			{"fast", evidence.FastBuilder{}},
			{"tiled", evidence.TiledBuilder{Workers: 1 + r.Intn(4), TileSize: 1 + r.Intn(9)}},
			{"auto/1", evidence.AutoBuilder{Workers: 1}},
			{"auto/n", evidence.AutoBuilder{Workers: 2 + r.Intn(3)}},
			{"auto", evidence.AutoBuilder{}},
		}
		for _, b := range builders {
			got, err := b.b.Build(space, withVios)
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			requireSameEvidence(t, naive, got, withVios)
		}
	})
}
