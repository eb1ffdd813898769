package evidence

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"adc/internal/bitset"
	"adc/internal/pli"
	"adc/internal/predicate"
)

// AutoBuilder constructs the evidence set cluster- and cache-aware:
//
//   - Rows with identical predicate behavior — equal single-tuple masks
//     and equal PLI codes in every cross-tuple group, in both tuple
//     roles — are collapsed into one weighted super-row. All w·w' pairs
//     of a super-row pair share one evidence set, computed once and
//     counted w·w' times, so equal-heavy relations drop from O(n²)
//     evidence computations to O(s²) for s distinct signatures.
//   - Super-rows are sorted by PLI rank (lowest-cardinality groups as
//     the primary keys) and the pair space is processed in cache-sized
//     tiles. Within a tile, a low-cardinality group contributes one
//     fixed operator mask per pair of rank clusters (a rank-run ×
//     rank-run block) — one comparison per cluster pair instead of one
//     per tuple pair. High-cardinality groups take a branch-free
//     segment pass instead: each column tile is pre-sorted by the
//     group's rank once (shared by every row tile), splitting each
//     row's comparisons into three contiguous segments (>, =, <) that
//     are OR-ed without any per-pair comparison or branch.
//   - Pairs are built and deduplicated as clues, not predicate
//     bitsets (see clueLayout): a base-mask id plus one 1–2 bit code
//     per cross group, usually one word where the predicate bitset
//     takes two or three. Each group's comparison outcome is one word
//     OR; the open-addressing intern table (word-level FNV hash,
//     arena-backed, no string allocation) hashes and compares clue
//     words, and worker-local tables merge with a word-level combine.
//     Each distinct clue is expanded to its predicate bitset once, at
//     the end; the expansion is injective, so no second dedup runs.
//
// The worker count follows the data: single-threaded for small
// super-pair counts (the goroutine fan-out costs more than the work),
// parallel beyond that. For a fixed worker count the distinct sets come
// out in the same order on every build. The result is bit-for-bit
// identical to the per-pair, per-predicate oracle of the package tests
// (tests and the fuzz corpus enforce this); only the construction cost
// differs.
type AutoBuilder struct {
	// Workers bounds the goroutines used when the heuristic goes
	// parallel; 0 means GOMAXPROCS and 1 forces a single thread.
	Workers int
	// Indexes optionally shares a per-column PLI cache (the same store
	// the violation checker uses) so long-lived callers skip rebuilding
	// same-attribute indexes. Ignored unless it covers exactly the
	// relation's columns.
	Indexes *pli.Store
}

// autoSerialPairs: below this many super-pairs a single worker beats
// the goroutine fan-out cost.
const autoSerialPairs = 1 << 16

// Build constructs Evi(D). When withVios is set, per-tuple participation
// counts are recorded (needed by f2 and greedy f3).
func (b AutoBuilder) Build(space *predicate.Space, withVios bool) (*Set, error) {
	n := space.Rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("evidence: need at least 2 rows, have %d", n)
	}
	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cp := prepareClusters(preparePlan(space, b.Indexes), n, 0)
	if int64(cp.s)*int64(cp.s) < autoSerialPairs {
		workers = 1
	}
	return cp.run(space, withVios, workers), nil
}

// ---- Cluster plan --------------------------------------------------------

// colTileIndex is one (scattered group, column tile) pre-sorted view:
// the tile's positions ordered by the group's code, with the codes in
// that order. Built once per column tile and shared by every row tile,
// it turns each row's mask selection into two binary searches and three
// branch-free segment loops.
type colTileIndex struct {
	perm  []int32
	codes []int32
}

// clusterPlan is a plan reorganized around super-rows: rows collapsed
// by full predicate signature, sorted by PLI rank for run batching,
// with per-group structure-of-arrays code buffers.
type clusterPlan struct {
	p    *plan
	n    int // original rows
	s    int // super-rows
	tile int

	clue     *clueLayout
	members  [][]int32 // super-row -> original row indexes (weight = len)
	baseClue []uint64  // super-row -> clue word 0 before any group ORs (its base-mask id)
	rowCodes [][]int32 // [group][super-row] code in the first-tuple role
	colCodes [][]int32 // [group][super-row] code in the second-tuple role

	// clustered groups run the rank-run × rank-run block pass;
	// scattered groups run the sorted-segment pass over colIdx.
	clustered []int32
	scattered []int32
	colIdx    [][]colTileIndex // [group][column tile]; nil for clustered groups
}

const defaultTileSize = 64

// clusterRunThreshold classifies groups: a group whose code sequence
// (after rank sorting) has at most s/4 runs averages runs of ≥4
// super-rows, enough for the block pass to amortize its bookkeeping.
func clusterRunThreshold(s int) int { return s / 4 }

// prepareClusters collapses rows into super-rows and lays the plan out
// for the tiled kernel.
func prepareClusters(p *plan, n, tileSize int) *clusterPlan {
	if tileSize <= 0 {
		tileSize = defaultTileSize
	}
	g := len(p.cross)
	ids, s := p.signatures()
	members := make([][]int32, s)
	for i, idx := range ids {
		members[idx] = append(members[idx], int32(i))
	}

	// Visit order: lexicographic by group code, lowest-cardinality
	// groups first, so the primary sort keys form the longest runs.
	byCard := make([]int, g)
	for k := range byCard {
		byCard[k] = k
	}
	slices.SortFunc(byCard, func(a, b int) int {
		if ca, cb := p.cross[a].card, p.cross[b].card; ca != cb {
			return int(ca - cb)
		}
		return a - b
	})
	rep := make([]int32, s) // representative original row per super-row
	for t := range members {
		rep[t] = members[t][0]
	}
	ord := make([]int32, s)
	for t := range ord {
		ord[t] = int32(t)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		ra, rb := rep[a], rep[b]
		for _, k := range byCard {
			cg := &p.cross[k]
			if cg.ra[ra] != cg.ra[rb] {
				return int(cg.ra[ra] - cg.ra[rb])
			}
			if cg.rb[ra] != cg.rb[rb] {
				return int(cg.rb[ra] - cg.rb[rb])
			}
		}
		return int(a - b) // signatures differ only in the mask
	})

	cp := &clusterPlan{
		p:        p,
		n:        n,
		s:        s,
		tile:     tileSize,
		clue:     newClueLayout(p),
		members:  make([][]int32, s),
		baseClue: make([]uint64, s),
		rowCodes: make([][]int32, g),
		colCodes: make([][]int32, g),
		colIdx:   make([][]colTileIndex, g),
	}
	for k := range p.cross {
		cp.rowCodes[k] = make([]int32, s)
		cp.colCodes[k] = make([]int32, s)
	}
	for t, src := range ord {
		cp.members[t] = members[src]
		r := rep[src]
		cp.baseClue[t] = uint64(p.baseID[r])
		for k := range p.cross {
			cp.rowCodes[k][t] = p.cross[k].ra[r]
			cp.colCodes[k][t] = p.cross[k].rb[r]
		}
	}

	// Classify groups by their realized run structure in the chosen
	// order (primary sort keys cluster; late or cross-column keys may
	// not), and pre-sort column tiles for the scattered ones.
	threshold := clusterRunThreshold(s)
	numTiles := (s + tileSize - 1) / tileSize
	for k := 0; k < g; k++ {
		runs := countRuns(cp.rowCodes[k]) // row runs drive the block pass
		if runs <= threshold {
			cp.clustered = append(cp.clustered, int32(k))
			continue
		}
		cp.scattered = append(cp.scattered, int32(k))
		cc := cp.colCodes[k]
		idx := make([]colTileIndex, numTiles)
		for ti := range idx {
			c0 := ti * tileSize
			c1 := c0 + tileSize
			if c1 > s {
				c1 = s
			}
			perm := make([]int32, c1-c0)
			for j := range perm {
				perm[j] = int32(j)
			}
			slices.SortFunc(perm, func(pa, pb int32) int {
				if ca, cb := cc[c0+int(pa)], cc[c0+int(pb)]; ca != cb {
					return int(ca - cb)
				}
				return int(pa - pb)
			})
			codes := make([]int32, len(perm))
			for j, pj := range perm {
				codes[j] = cc[c0+int(pj)]
			}
			idx[ti] = colTileIndex{perm: perm, codes: codes}
		}
		cp.colIdx[k] = idx
	}
	return cp
}

func countRuns(codes []int32) int {
	runs := 0
	for i, c := range codes {
		if i == 0 || codes[i-1] != c {
			runs++
		}
	}
	return runs
}

// ---- Kernel --------------------------------------------------------------

// clusterAcc is one worker's private accumulation state.
type clusterAcc struct {
	tab *internTable
	// superVios, when vios are requested, counts per distinct evidence
	// set how many ordered pairs each super-row participates in; it is
	// expanded to per-tuple counts once, at finish.
	superVios []map[int32]int64
}

func newClusterAcc(words int, withVios bool) *clusterAcc {
	a := &clusterAcc{tab: newInternTable(words, internCapHint)}
	if withVios {
		a.superVios = []map[int32]int64{}
	}
	return a
}

func (a *clusterAcc) vios(idx int32) map[int32]int64 {
	for int(idx) >= len(a.superVios) {
		a.superVios = append(a.superVios, nil)
	}
	if a.superVios[idx] == nil {
		a.superVios[idx] = make(map[int32]int64)
	}
	return a.superVios[idx]
}

// run executes the tiled kernel across workers and assembles the Set.
func (cp *clusterPlan) run(space *predicate.Space, withVios bool, workers int) *Set {
	tileSize := cp.tile
	numTiles := (cp.s + tileSize - 1) / tileSize
	if workers > numTiles {
		workers = numTiles
	}

	accs := make([]*clusterAcc, workers)
	if workers <= 1 {
		accs[0] = newClusterAcc(cp.clue.words, withVios)
		buf := make([]uint64, tileSize*tileSize*cp.clue.words)
		for rt := 0; rt < numTiles; rt++ {
			cp.rowTile(accs[0], buf, rt*tileSize, withVios)
		}
	} else {
		// Strided static assignment: worker w takes row tiles w, w+W,
		// w+2W, … — interleaving spreads weight skew across workers
		// while keeping each worker's visit order (and therefore the
		// merged distinct-set order) deterministic for a fixed W.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			accs[w] = newClusterAcc(cp.clue.words, withVios)
			wg.Add(1)
			go func(acc *clusterAcc, w int) {
				defer wg.Done()
				buf := make([]uint64, tileSize*tileSize*cp.clue.words)
				for rt := w; rt < numTiles; rt += workers {
					cp.rowTile(acc, buf, rt*tileSize, withVios)
				}
			}(accs[w], w)
		}
		wg.Wait()
	}

	base := accs[0]
	for _, other := range accs[1:] {
		remap := base.tab.mergeFrom(other.tab)
		if withVios {
			for k, sv := range other.superVios {
				if len(sv) == 0 {
					continue
				}
				dst := base.vios(remap[k])
				for sr, c := range sv {
					dst[sr] += c
				}
			}
		}
	}
	return cp.finish(space, base, withVios)
}

// rowTile processes the row band of super-rows [r0, r0+tile) against
// every column tile.
func (cp *clusterPlan) rowTile(acc *clusterAcc, buf []uint64, r0 int, withVios bool) {
	r1 := r0 + cp.tile
	if r1 > cp.s {
		r1 = cp.s
	}
	for ct := 0; ct*cp.tile < cp.s; ct++ {
		cp.tileKernel(acc, buf, r0, r1, ct, withVios)
	}
}

// tileKernel builds the clue of every super-pair in the tile
// [r0,r1) × [c0,c1): base ids written row-wise, block ORs for clustered
// groups, segment ORs for scattered groups, then interning.
func (cp *clusterPlan) tileKernel(acc *clusterAcc, buf []uint64, r0, r1, ct int, withVios bool) {
	c0 := ct * cp.tile
	c1 := c0 + cp.tile
	if c1 > cp.s {
		c1 = cp.s
	}
	rows, cols := r1-r0, c1-c0
	words := cp.clue.words
	fields := cp.clue.fields

	// Initialize every pair of the tile with its row's base id; the
	// group fields start at zero.
	for ti := 0; ti < rows; ti++ {
		w := cp.baseClue[r0+ti]
		row := buf[ti*cols*words : (ti+1)*cols*words]
		if words == 1 {
			for tj := range row {
				row[tj] = w
			}
			continue
		}
		clear(row)
		for tj := 0; tj < len(row); tj += words {
			row[tj] = w
		}
	}

	// Clustered groups, block pass: every rank-run × rank-run block is
	// one cluster pair, selecting one code for the whole block.
	for _, k := range cp.clustered {
		rc, cc := cp.rowCodes[k], cp.colCodes[k]
		f := &fields[k]
		for ti := 0; ti < rows; {
			a := rc[r0+ti]
			te := ti + 1
			for te < rows && rc[r0+te] == a {
				te++
			}
			for tj := 0; tj < cols; {
				b := cc[c0+tj]
				se := tj + 1
				for se < cols && cc[c0+se] == b {
					se++
				}
				var v uint64
				switch {
				case a == b:
					v = f.eq
				case a < b:
					v = f.lt
				default:
					v = f.gt
				}
				orBlock(buf, ti, te, tj, se, cols, words, f.word, v)
				tj = se
			}
			ti = te
		}
	}

	// Scattered groups, segment pass, row-major so each tile row's
	// clues stay L1-resident across groups. For each row the sorted
	// column view splits into [0,lo) where the column's code is below
	// the row's (gt), [lo,hi) equal (eq), and [hi,cols) above (lt) — no
	// per-pair comparison or branch.
	for ti := 0; ti < rows; ti++ {
		rowBase := ti * cols * words
		for _, k := range cp.scattered {
			a := cp.rowCodes[k][r0+ti]
			idx := &cp.colIdx[k][ct]
			f := &fields[k]
			codes := idx.codes
			// Inlined branchless-ish binary search for the first code
			// ≥ a (sort.Search's closure call costs as much as the
			// compare at this trip count).
			lo, up := 0, len(codes)
			for lo < up {
				mid := int(uint(lo+up) >> 1)
				if codes[mid] < a {
					lo = mid + 1
				} else {
					up = mid
				}
			}
			hi := lo
			for hi < len(codes) && codes[hi] == a {
				hi++
			}
			orSegment(buf, rowBase, idx.perm[:lo], words, f.word, f.gt)
			orSegment(buf, rowBase, idx.perm[lo:hi], words, f.word, f.eq)
			orSegment(buf, rowBase, idx.perm[hi:], words, f.word, f.lt)
		}
	}

	// Intern each super-pair with its pair multiplicity.
	for ti := 0; ti < rows; ti++ {
		a := r0 + ti
		wa := int64(len(cp.members[a]))
		rowBuf := buf[ti*cols*words:]
		for tj := 0; tj < cols; tj++ {
			b := c0 + tj
			var cnt int64
			if a == b {
				cnt = wa * (wa - 1) // ordered pairs within one super-row
				if cnt == 0 {
					continue
				}
			} else {
				cnt = wa * int64(len(cp.members[b]))
			}
			idx := acc.tab.add(rowBuf[tj*words:(tj+1)*words], cnt)
			if withVios {
				sv := acc.vios(idx)
				if a == b {
					sv[int32(a)] += 2 * (wa - 1)
				} else {
					sv[int32(a)] += int64(len(cp.members[b]))
					sv[int32(b)] += wa
				}
			}
		}
	}
}

// orBlock ORs v into clue word wi of every pair of the block
// [ti,te) × [tj,se) of the tile buffer. A zero v (code 0) is a no-op.
func orBlock(buf []uint64, ti, te, tj, se, cols, words, wi int, v uint64) {
	if v == 0 {
		return
	}
	if words == 1 {
		for t := ti; t < te; t++ {
			row := buf[t*cols : t*cols+cols]
			for s := tj; s < se; s++ {
				row[s] |= v
			}
		}
		return
	}
	for t := ti; t < te; t++ {
		base := t*cols*words + wi
		for s := tj; s < se; s++ {
			buf[base+s*words] |= v
		}
	}
}

// orSegment ORs v into clue word wi of the pairs (rowBase, perm[...])
// of one tile row — the branch-free inner loop of the scattered pass.
func orSegment(buf []uint64, rowBase int, perm []int32, words, wi int, v uint64) {
	if v == 0 || len(perm) == 0 {
		return
	}
	if words == 1 {
		row := buf[rowBase:]
		for _, pj := range perm {
			row[pj] |= v
		}
		return
	}
	base := rowBase + wi
	for _, pj := range perm {
		buf[base+int(pj)*words] |= v
	}
}

// finish assembles the Set: each distinct clue expanded once into an
// arena of predicate bitsets (index for index, so counts and vios carry
// over unchanged), and the super-row vios expanded to per-tuple counts.
// The clue table is not retained.
func (cp *clusterPlan) finish(space *predicate.Space, acc *clusterAcc, withVios bool) *Set {
	words, d := cp.p.words, acc.tab.len()
	arena := make([]uint64, d*words)
	sets := make([]bitset.Bits, d)
	for k := range sets {
		sets[k] = arena[k*words : (k+1)*words : (k+1)*words]
		cp.clue.expand(cp.p, acc.tab.key(int32(k)), sets[k])
	}
	out := &Set{
		Space:      space,
		Sets:       sets,
		Counts:     acc.tab.counts,
		TotalPairs: int64(cp.n) * int64(cp.n-1),
		NumRows:    cp.n,
	}
	if withVios {
		out.Vios = make([]map[int32]int64, acc.tab.len())
		for idx := range out.Vios {
			m := make(map[int32]int64)
			if idx < len(acc.superVios) {
				for sr, c := range acc.superVios[idx] {
					for _, row := range cp.members[sr] {
						m[row] += c
					}
				}
			}
			out.Vios[idx] = m
		}
	}
	return out
}
