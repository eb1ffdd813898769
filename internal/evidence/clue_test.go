package evidence

import (
	"math/bits"
	"testing"

	"adc/internal/datagen"
	"adc/internal/predicate"
)

// TestClueLayoutPaperDatasets checks the clue layout on every paper
// dataset's predicate space: each group's codes expand to pairwise
// distinct masks, each comparison outcome's code expands to that
// outcome's operator mask, and no field straddles a word or overlaps
// another.
func TestClueLayoutPaperDatasets(t *testing.T) {
	for _, name := range datagen.Names() {
		d, err := datagen.ByName(name, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		space := predicate.Build(d.Rel, predicate.DefaultOptions())
		p := preparePlan(space, nil)
		l := newClueLayout(p)
		used := make([]uint64, l.words)
		used[0] = l.baseBits
		for k := range l.fields {
			f, cg := &l.fields[k], &p.cross[k]
			for a := range f.masks {
				for b := a + 1; b < len(f.masks); b++ {
					if f.masks[a].Equal(f.masks[b]) {
						t.Fatalf("%s group %d: codes %d and %d expand to the same mask", name, k, a, b)
					}
				}
			}
			for _, o := range []struct {
				v    uint64
				want []uint64
			}{{f.lt, cg.maskLt}, {f.eq, cg.maskEq}, {f.gt, cg.maskGt}} {
				if code := o.v >> f.shift; !f.masks[code].Equal(o.want) {
					t.Fatalf("%s group %d: code %d expands to the wrong mask", name, k, code)
				}
			}
			if f.shift+uint(bits.Len64(f.bits)) > 64 {
				t.Fatalf("%s group %d: field straddles a word", name, k)
			}
			if used[f.word]&(f.bits<<f.shift) != 0 {
				t.Fatalf("%s group %d: field overlaps another", name, k)
			}
			used[f.word] |= f.bits << f.shift
		}
		t.Logf("%s: %d predicates in %d words, clue %d words, %d base masks",
			name, space.Size(), p.words, l.words, len(p.baseMask))
	}
}
