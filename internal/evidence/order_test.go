package evidence_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"adc/internal/datagen"
	"adc/internal/evidence"
	"adc/internal/predicate"
)

// evidenceFingerprint hashes a built Set in its output order: each
// distinct set's words, its count and, when vios are present, its
// tuple → count map sorted by tuple. Two builds agree on the
// fingerprint only if they emit the same sets in the same order — the
// order hitset.chooseUncov's lowest-index tie-break depends on.
func evidenceFingerprint(s *evidence.Set) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(s.Sets)))
	for k, ev := range s.Sets {
		put(uint64(len(ev)))
		for _, w := range ev {
			put(w)
		}
		put(uint64(s.Counts[k]))
		if s.Vios == nil {
			continue
		}
		m := s.Vios[k]
		tuples := make([]int32, 0, len(m))
		for t := range m {
			tuples = append(tuples, t)
		}
		slices.Sort(tuples)
		put(uint64(len(tuples)))
		for _, t := range tuples {
			put(uint64(t))
			put(uint64(m[t]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestEvidenceOrderPinned pins the exact output order, counts and vios
// of the tiled kernel on seeded paper datasets, serial and at four
// workers. TestClusterDeterministicOrder only checks that repeated
// builds agree; these fixed fingerprints also catch a kernel change
// that reorders distinct sets consistently — and with them the
// enumerator's lowest-index tie-breaks and its call counts.
func TestEvidenceOrderPinned(t *testing.T) {
	want := map[string]string{
		"adult/vios=false/workers=1":    "5a85fe2c3cc81c2c",
		"adult/vios=false/workers=4":    "b32b40e499eb666b",
		"adult/vios=true/workers=1":     "cfe338cc2990e7b2",
		"adult/vios=true/workers=4":     "4bb9036bbf16ea23",
		"tax/vios=false/workers=1":      "944b214ae44186ec",
		"tax/vios=false/workers=4":      "42127ac7a1a2787e",
		"tax/vios=true/workers=1":       "b79fae27f38af6a4",
		"tax/vios=true/workers=4":       "492d65fbf271ae3b",
		"hospital/vios=false/workers=1": "3e17675914c4a20d",
		"hospital/vios=false/workers=4": "809f3b45ad004e47",
		"hospital/vios=true/workers=1":  "8fe184bbdaedd557",
		"hospital/vios=true/workers=4":  "1572031f1e450b8b",
		"stock/vios=false/workers=1":    "d690ae8a439a10cc",
		"stock/vios=false/workers=4":    "5151e6db512cef82",
		"stock/vios=true/workers=1":     "0f892cc200f66c27",
		"stock/vios=true/workers=4":     "a9ea658e68a687a5",
		"airport/vios=false/workers=1":  "3369447268aff443",
		"airport/vios=false/workers=4":  "d057c2f16d563a82",
		"airport/vios=true/workers=1":   "7c7200dc323f0358",
		"airport/vios=true/workers=4":   "d609e541cbab6db8",
	}
	for _, name := range []string{"adult", "tax", "hospital", "stock", "airport"} {
		d, err := datagen.ByName(name, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		space := predicate.Build(d.Rel, predicate.DefaultOptions())
		for _, withVios := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				key := fmt.Sprintf("%s/vios=%v/workers=%d", name, withVios, workers)
				set, err := evidence.TiledBuilder{Workers: workers}.Build(space, withVios)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if got := evidenceFingerprint(set); got != want[key] {
					t.Errorf("%s: fingerprint %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
