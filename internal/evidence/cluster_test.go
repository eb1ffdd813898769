package evidence_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adc/internal/datagen"
	"adc/internal/dataset"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// viosMultiset canonicalizes the per-tuple participation counts keyed
// by bitset image, for order-independent comparison.
func viosMultiset(t *testing.T, s *evidence.Set) map[string]map[int32]int64 {
	t.Helper()
	out := make(map[string]map[int32]int64, s.Distinct())
	for k, ev := range s.Sets {
		key := ev.Key()
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate distinct set in evidence output")
		}
		out[key] = s.Vios[k]
	}
	return out
}

func requireSameEvidence(t *testing.T, want, got *evidence.Set, withVios bool) {
	t.Helper()
	if want.TotalPairs != got.TotalPairs {
		t.Fatalf("TotalPairs = %d, want %d", got.TotalPairs, want.TotalPairs)
	}
	if want.NumRows != got.NumRows {
		t.Fatalf("NumRows = %d, want %d", got.NumRows, want.NumRows)
	}
	wm, gm := asMultiset(want), asMultiset(got)
	if len(wm) != len(gm) {
		t.Fatalf("distinct sets differ: want %d, got %d", len(wm), len(gm))
	}
	for k, c := range wm {
		if gm[k] != c {
			t.Fatalf("multiplicity mismatch: want %d, got %d", c, gm[k])
		}
	}
	if !withVios {
		return
	}
	wv, gv := viosMultiset(t, want), viosMultiset(t, got)
	for k, wantMap := range wv {
		gotMap := gv[k]
		if len(gotMap) != len(wantMap) {
			t.Fatalf("vios tuple count differs: want %d, got %d", len(wantMap), len(gotMap))
		}
		for tuple, c := range wantMap {
			if gotMap[tuple] != c {
				t.Fatalf("vios[%d] = %d, want %d", tuple, gotMap[tuple], c)
			}
		}
	}
}

func TestClusterMatchesNaiveOnRunningExample(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 7} {
		cluster, err := evidence.TiledBuilder{Workers: workers}.Build(space, true)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameEvidence(t, naive, cluster, true)
	}
}

func TestClusterTileSizes(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	// Tile edges below, at, and above the row count exercise partial
	// tiles and the diagonal in every position.
	for _, tile := range []int{1, 2, 3, 5, 16, 1024} {
		cluster, err := evidence.TiledBuilder{TileSize: tile, Workers: 2}.Build(space, false)
		if err != nil {
			t.Fatalf("tile=%d: %v", tile, err)
		}
		requireSameEvidence(t, naive, cluster, false)
	}
}

func TestAutoMatchesNaive(t *testing.T) {
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := evidence.AutoBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, naive, auto, true)
}

// TestClusterAllRowsIdentical exercises total collapse: one super-row,
// a single distinct evidence set with multiplicity n(n-1).
func TestClusterAllRowsIdentical(t *testing.T) {
	n := 9
	names := make([]string, n)
	vals := make([]int64, n)
	for i := range names {
		names[i] = "same"
		vals[i] = 7
	}
	rel := dataset.MustNewRelation("uniform", []*dataset.Column{
		dataset.NewStringColumn("s", names),
		dataset.NewIntColumn("x", vals),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	set, err := evidence.TiledBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	if set.Distinct() != 1 {
		t.Fatalf("distinct sets = %d, want 1", set.Distinct())
	}
	if got, want := set.CountOf(0), int64(n*(n-1)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, naive, set, true)
}

// TestClusterAllRowsDistinct exercises the no-compression path (every
// signature unique), on the tiled kernel and through AutoBuilder.
func TestClusterAllRowsDistinct(t *testing.T) {
	n := 23
	vals := make([]float64, n)
	ids := make([]int64, n)
	for i := range vals {
		vals[i] = float64(i) * 1.5
		ids[i] = int64(n - i)
	}
	rel := dataset.MustNewRelation("unique", []*dataset.Column{
		dataset.NewFloatColumn("v", vals),
		dataset.NewIntColumn("id", ids),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := evidence.TiledBuilder{Workers: 3}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, naive, cluster, true)
	auto, err := evidence.AutoBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	requireSameEvidence(t, naive, auto, true)
}

func TestClusterTooFewRows(t *testing.T) {
	rel := dataset.MustNewRelation("r", []*dataset.Column{
		dataset.NewIntColumn("a", []int64{1}),
	})
	space := predicate.Build(rel, predicate.DefaultOptions())
	if _, err := (evidence.TiledBuilder{}).Build(space, false); err == nil {
		t.Error("cluster: want error on single-row relation")
	}
	if _, err := (evidence.AutoBuilder{}).Build(space, false); err == nil {
		t.Error("auto: want error on single-row relation")
	}
}

// TestClusterDeterministicOrder pins the stronger property the builder
// documents: for a fixed worker count, repeated builds produce the
// distinct sets in the same order, not just the same multiset.
func TestClusterDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rel := randomRelation(r)
	space := predicate.Build(rel, predicate.DefaultOptions())
	first, err := evidence.TiledBuilder{Workers: 4, TileSize: 2}.Build(space, false)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := evidence.TiledBuilder{Workers: 4, TileSize: 2}.Build(space, false)
		if err != nil {
			t.Fatal(err)
		}
		if again.Distinct() != first.Distinct() {
			t.Fatal("distinct count changed between runs")
		}
		for k := range first.Sets {
			if !first.Sets[k].Equal(again.Sets[k]) || first.Counts[k] != again.Counts[k] {
				t.Fatalf("order or counts changed between runs at %d", k)
			}
		}
	}
}

func TestQuickClusterAgreesWithNaive(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		rel := randomRelation(r)
		space := predicate.Build(rel, predicate.DefaultOptions())
		naive, err := evidence.NaiveBuilder{}.Build(space, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		workers := 1 + r.Intn(5)
		tile := 1 + r.Intn(12)
		cluster, err := evidence.TiledBuilder{Workers: workers, TileSize: tile}.Build(space, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameEvidence(t, naive, cluster, true)
	}
}

// TestClueExpansionInjective builds each paper dataset's evidence and
// checks that no two distinct clues expanded to the same evidence set:
// the kernel deduplicates clues only, so a non-injective layout would
// surface here as a repeated set.
func TestClueExpansionInjective(t *testing.T) {
	for _, name := range datagen.Names() {
		d, err := datagen.ByName(name, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		space := predicate.Build(d.Rel, predicate.DefaultOptions())
		set, err := evidence.TiledBuilder{Workers: 2}.Build(space, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(asMultiset(set)); got != set.Distinct() {
			t.Fatalf("%s: %d distinct clues expanded to %d distinct sets", name, set.Distinct(), got)
		}
	}
}

// TestClueMultiWord forces a clue wider than one word — 40 numeric
// columns, each with its own 2-bit lt/eq/gt field — and checks the
// tiled kernel against the oracle at tile sizes that split the tile
// buffer's multi-word pairs every way.
func TestClueMultiWord(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 24
	cols := make([]*dataset.Column, 40)
	for c := range cols {
		vals := make([]int64, n)
		for i := range vals {
			// Column pairs share a domain, so single-tuple and
			// cross-column groups join the same-column ones.
			vals[i] = int64(c/2)*100 + int64(r.Intn(4))
		}
		cols[c] = dataset.NewIntColumn(fmt.Sprintf("c%d", c), vals)
	}
	space := predicate.Build(dataset.MustNewRelation("wide", cols), predicate.DefaultOptions())
	if w := evidence.ClueWords(space); w < 2 {
		t.Fatalf("clue is %d word(s), want a multi-word clue", w)
	}
	naive, err := evidence.NaiveBuilder{}.Build(space, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range []int{1, 2, 7} {
		got, err := evidence.TiledBuilder{Workers: 2, TileSize: tile}.Build(space, true)
		if err != nil {
			t.Fatalf("tile=%d: %v", tile, err)
		}
		requireSameEvidence(t, naive, got, true)
	}
}
