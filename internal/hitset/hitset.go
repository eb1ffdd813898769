// Package hitset implements the two hitting-set enumerators of the
// paper: MMCS, the exact minimal-hitting-set algorithm of Murakami and
// Uno (Figure 3), and ADCEnum, the paper's algorithm for enumerating
// minimal *approximate* hitting sets (Figures 4 and 5). Both operate on
// an evidence set (package evidence): the elements of the universe are
// predicate IDs and the subsets to hit are the distinct evidence sets,
// weighted by multiplicity.
//
// The set families of the pseudo-code are word bitmaps: uncov, crit[u]
// and canHit over the distinct evidence sets, cand over the elements.
// uncov and crit live in one frame per hitting-set size, so adding an
// element to S writes the next frame with AND/ANDNOT passes and
// removing it again is a return to the previous frame (see state).
//
// ADCEnum runs either as the classic sequential recursion or, with
// Options.Workers, as a parallel enumeration: the search tree is cut
// into subtrees identified by their move sequence from the root, and a
// work-stealing worker pool replays and enumerates them, each worker on
// its own state (see parallel.go). Both modes emit exactly the same set
// of hitting sets.
//
// As the paper notes (Section 6), ADCEnum is a general algorithm for
// enumerating minimal approximate hitting sets and is usable outside
// constraint discovery: build the input with evidence.FromSets and leave
// the predicate space nil, which disables the DC-specific
// operator-variant pruning.
package hitset

import (
	"math/bits"
	"runtime"

	"adc/internal/approx"
	"adc/internal/bitset"
	"adc/internal/evidence"
)

// Stats reports the work done by an enumeration run. Parallel runs keep
// one Stats per worker and merge them atomically at join, so the totals
// are exact; because every search node is processed by exactly one
// worker, the merged counters equal the sequential run's.
type Stats struct {
	// Calls counts recursive invocations (both branches), the metric of
	// the Figure 10 ablation.
	Calls int64
	// Outputs counts emitted (approximate) hitting sets.
	Outputs int64
	// LossEvals counts approximation-function evaluations.
	LossEvals int64
}

// Options configures ADCEnum.
type Options struct {
	// Func is the approximation function; required.
	Func approx.Func
	// Epsilon is the approximation threshold ε ≥ 0 (Definition 4.4).
	Epsilon float64
	// Workers selects the enumeration parallelism of EnumerateADC: 0
	// picks GOMAXPROCS (degrading to the sequential recursion on small
	// evidence sets, where fan-out costs more than it buys), 1 forces
	// the sequential recursion, and n > 1 distributes search subtrees
	// across n workers with work stealing. The emitted set of hitting
	// sets is identical for every value. EnumerateMinimal ignores it.
	Workers int
	// ChooseMinIntersection selects, at each node, the uncovered set with
	// the minimum intersection with the candidate list, as Murakami and
	// Uno suggest. The default (false) picks the maximum intersection,
	// the paper's improvement evaluated in Figure 10.
	ChooseMinIntersection bool
	// MaxPredicates bounds the hitting-set size (DC length); 0 means
	// unbounded.
	MaxPredicates int
}

// autoParallelMinSets is the instance size below which Workers == 0
// falls back to the sequential recursion: with fewer distinct evidence
// sets the whole enumeration is cheaper than spinning up a pool.
const autoParallelMinSets = 128

// clampWorkers bounds Options.Workers to a few workers per core (with
// floor 32 so explicit small counts behave identically on any machine).
// Beyond that a worker only adds the footprint of another full state
// copy — and the field is client-reachable through dcserved mine
// requests, so an absurd value must not translate into goroutines.
func clampWorkers(w int) int {
	limit := 4 * runtime.GOMAXPROCS(0)
	if limit < 32 {
		limit = 32
	}
	if w > limit {
		return limit
	}
	return w
}

// EnumerateADC runs ADCEnum over the evidence set and calls emit with
// every minimal approximate hitting set w.r.t. opts.Func and
// opts.Epsilon. The bitset passed to emit is reused; clone it to retain.
// Theorem 6.1: every emitted set is a minimal ADC hitting set, all of
// them are emitted, and each exactly once — in parallel runs emit is
// invoked from worker goroutines but never concurrently, and the emitted
// set is identical to the sequential run's (order may differ).
func EnumerateADC(ev *evidence.Set, opts Options, emit func(hs bitset.Bits)) Stats {
	workers := clampWorkers(opts.Workers)
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
		if len(ev.Sets) < autoParallelMinSets {
			workers = 1
		}
	}
	if workers <= 1 {
		st := newState(ev, opts)
		st.emit = emit
		st.adcEnum()
		return st.stats
	}
	return enumerateADCParallel(ev, opts, workers, emit)
}

// EnumerateMinimal runs the exact MMCS algorithm and calls emit with
// every minimal hitting set of the evidence set (equivalently, every
// minimal valid DC's complement set). The bitset passed to emit is
// reused; clone it to retain.
func EnumerateMinimal(ev *evidence.Set, opts Options, emit func(hs bitset.Bits)) Stats {
	st := newState(ev, opts)
	st.emit = emit
	st.mmcs()
	return st.stats
}

// state carries the bookkeeping of Figures 3 and 4 as word bitmaps over
// the distinct evidence sets. occ[e] holds the sets containing element
// e. Each |S| has one frame holding uncov, the sets S does not hit, and
// crit[i], the sets whose only element of S is the i-th one pushed.
// push writes frame |S|+1 from frame |S| with AND/ANDNOT passes, so the
// pseudo-code's "recover" lines are a return to the shallower frame, and
// only the newly covered sets move through the live tally. canHit is
// one bitset, saved on a stack around each updateCanHit; cand is one
// bitset with short undo lists.
//
// Every branch decision below is a pure function of the set-valued
// state, read in set-index order. The parallel enumerator depends on
// this: a worker replays a move sequence from a fresh root and must make
// exactly the choices the enqueuing worker made (see parallel.go).
type state struct {
	ev    *evidence.Set
	opts  Options
	emit  func(bitset.Bits)
	stats Stats

	sets []bitset.Bits

	occ    []bitset.Bits // occ[e]: the sets containing element e
	frames []frame       // frames[d]: uncov and crit when |S| = d
	canHit bitset.Bits   // uncovered sets some extension of S can still hit
	lost   bitset.Bits   // willCover's scratch: uncov \ canHit
	cand   bitset.Bits
	s      []int       // the growing hitting set S
	sBits  bitset.Bits // same as s, as a bitset

	// saved[:nsaved] is the stack of canHit words as they were before
	// each live updateCanHit; buffers beyond nsaved are kept for reuse.
	saved  []bitset.Bits
	nsaved int

	// eval moves sets in and out of tallies. tally is the live tally
	// of the current frame's uncov (the bookkeeping the paper applies to
	// f1 in Section 5), so a loss never rescans the uncovered sets.
	eval  *Evaluator
	tally approx.Tally

	// offload, when set, is consulted before every recursive descent
	// with the child's move; returning true means the child subtree was
	// handed to another worker (or the frontier queue) and must not be
	// recursed into. path is the move sequence from the root to the
	// current node, maintained only while offload is set.
	offload func(m move) bool
	path    []move
	// passedPool pools one sibling-outcome mask per branch-2 recursion
	// depth (distinct live depths: every stack node in its branch-2
	// phase has a distinct |S|), used only when offload is set.
	passedPool [][]uint64
	// undoBuf is the reusable replay journal of runTask.
	undoBuf []moveUndo
}

// frame is the set-valued state of one hitting-set size: uncov, and
// crit[i] for the i-th element of S.
type frame struct {
	uncov bitset.Bits
	crit  []bitset.Bits
}

func newState(ev *evidence.Set, opts Options) *state {
	universe := universeSize(ev)
	st := &state{
		ev:     ev,
		opts:   opts,
		sets:   ev.Sets,
		occ:    make([]bitset.Bits, universe),
		canHit: bitset.New(len(ev.Sets)),
		lost:   bitset.New(len(ev.Sets)),
		cand:   bitset.New(universe),
		sBits:  bitset.New(universe),
		eval:   NewEvaluator(ev, opts.Func),
	}
	st.tally = st.eval.newTally()
	for e := range st.occ {
		st.occ[e] = bitset.New(len(ev.Sets))
		st.cand.Set(e)
	}
	root := st.frameAt(0)
	for k, set := range ev.Sets {
		root.uncov.Set(k)
		st.canHit.Set(k)
		st.eval.add(&st.tally, k)
		set.ForEach(func(e int) { st.occ[e].Set(k) })
	}
	return st
}

func universeSize(ev *evidence.Set) int {
	if ev.Space != nil {
		return ev.Space.Size()
	}
	max := 0
	for _, s := range ev.Sets {
		if n := len(s) * 64; n > max {
			max = n
		}
	}
	return max
}

// frameAt returns the frame for |S| = d, allocating it (and any
// shallower missing ones) on first use. Frames share no words, so a
// returned frame stays valid as the slice grows.
func (st *state) frameAt(d int) frame {
	for len(st.frames) <= d {
		n := len(st.frames)
		words := bitset.WordsFor(len(st.sets))
		buf := make(bitset.Bits, (n+1)*words)
		f := frame{uncov: buf[:words:words], crit: make([]bitset.Bits, n)}
		for i := range f.crit {
			f.crit[i] = buf[(i+1)*words : (i+2)*words : (i+2)*words]
		}
		st.frames = append(st.frames, f)
	}
	return st.frames[d]
}

// top is the frame of the current node.
func (st *state) top() frame { return st.frames[len(st.s)] }

// push is UpdateCritUncov of Figure 3 followed by its line 9 check. It
// writes frame |S|+1 for S ∪ {e}: the uncovered sets containing e leave
// uncov and become crit[e], and every crit[u] loses the sets e also
// hits. It reports whether every element of S ∪ {e} is still critical
// for some set; only then is e added to S and the newly covered sets
// moved out of the live tally. On false the state is unchanged.
func (st *state) push(e int) bool {
	d := len(st.s)
	next := st.frameAt(d + 1)
	cur := st.frames[d]
	occ := st.occ[e]
	covered := next.crit[d]
	var nz uint64 // OR of the words written: zero iff the bitmap is empty
	for i, w := range cur.uncov {
		c := w & occ[i]
		covered[i] = c
		next.uncov[i] = w &^ c
		nz |= c
	}
	if nz == 0 {
		return false
	}
	for j, src := range cur.crit {
		dst := next.crit[j]
		nz = 0
		for i, w := range src {
			w &^= occ[i]
			dst[i] = w
			nz |= w
		}
		if nz == 0 {
			return false
		}
	}
	st.s = append(st.s, e)
	st.sBits.Set(e)
	st.eval.removeAll(&st.tally, covered)
	return true
}

// pop undoes the last successful push: the sets it covered rejoin the
// live tally and frame |S| is current again.
func (st *state) pop() {
	d := len(st.s) - 1
	st.sBits.Clear(st.s[d])
	st.s = st.s[:d]
	st.eval.addAll(&st.tally, st.frames[d+1].crit[d])
}

// chooseScanLimit bounds how many eligible sets chooseUncov examines.
// The choice of set is a performance heuristic, not a correctness
// requirement (any uncovered set works), so scanning a bounded prefix
// keeps the per-node cost constant on large evidence sets while
// preserving the max/min-intersection preference among the scanned ones.
const chooseScanLimit = 64

// chooseUncov picks the next set to hit: among uncovered sets
// (restricted to canHit=true for ADCEnum when restrict is set), the one
// with the max (or min) intersection with cand among a bounded scan.
// Returns -1 if none qualifies.
//
// The scan walks uncov in set-index order with ties going to the lowest
// index, so the choice is a pure function of the uncovered set. The
// parallel enumerator's replay correctness depends on this (the serial
// enumerator only needs *some* deterministic rule).
func (st *state) chooseUncov(restrict bool) int {
	best, bestN := -1, -1
	scanned := 0
	for wi, w := range st.top().uncov {
		if restrict {
			w &= st.canHit[wi]
		}
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			n := st.sets[k].IntersectionCount(st.cand)
			if best == -1 {
				best, bestN = k, n
			} else if st.opts.ChooseMinIntersection {
				if n < bestN {
					best, bestN = k, n
				}
			} else if n > bestN {
				best, bestN = k, n
			}
			scanned++
			if scanned >= chooseScanLimit {
				return best
			}
		}
	}
	return best
}

// candidatesIn returns C = cand ∩ F as a slice of elements.
func (st *state) candidatesIn(k int) []int {
	var c []int
	st.sets[k].ForEach(func(e int) {
		if st.cand.Test(e) {
			c = append(c, e)
		}
	})
	return c
}

// ---- MMCS (Figure 3) ----------------------------------------------------

func (st *state) mmcs() {
	st.stats.Calls++
	if st.top().uncov.Empty() {
		st.emitCover()
		return
	}
	if st.opts.MaxPredicates > 0 && len(st.s) >= st.opts.MaxPredicates {
		return
	}
	f := st.chooseUncov(false)
	c := st.candidatesIn(f)
	for _, e := range c {
		st.cand.Clear(e)
	}
	for _, e := range c {
		if !st.push(e) {
			continue
		}
		variants := st.removeOperatorVariants(e)
		st.mmcs()
		st.pop()
		for _, m := range variants {
			st.cand.Set(m)
		}
		st.cand.Set(e)
	}
	for _, e := range c {
		st.cand.Set(e)
	}
}

// emitCover reports the current S as an output. Serial runs go straight
// to the user callback; parallel workers' emit is the pool's serialEmit.
func (st *state) emitCover() {
	st.stats.Outputs++
	st.emit(st.sBits)
}

// ---- ADCEnum (Figures 4 and 5) -------------------------------------------

// loss evaluates 1 − f(D, S′) for the DC whose uncovered sets are the
// current uncov plus the (disjoint) extra sets: the extra sets join the
// live tally for the evaluation and leave it again.
func (st *state) loss(extra bitset.Bits) float64 {
	st.stats.LossEvals++
	return st.eval.lossWith(&st.tally, extra)
}

// isMinimal is the subroutine of Figure 5: S is minimal iff no single
// deletion keeps the loss within ε. The uncovered sets of S \ {u} are
// uncov ∪ crit[u]. Monotonicity makes single deletions sufficient.
func (st *state) isMinimal() bool {
	for _, crit := range st.top().crit {
		if st.loss(crit) <= st.opts.Epsilon {
			return false
		}
	}
	return true
}

// willCover is the subroutine of Figure 5: the best any extension of S
// by remaining candidates can do is cover every uncovered set that still
// intersects cand; the sets that cannot be hit are the uncovered ones
// outside canHit (the caller runs updateCanHit first). If even that loss
// exceeds ε, monotonicity prunes the branch.
func (st *state) willCover() bool {
	st.stats.LossEvals++
	for i, w := range st.top().uncov {
		st.lost[i] = w &^ st.canHit[i]
	}
	return st.eval.lossWith(&st.eval.scratch, st.lost) <= st.opts.Epsilon
}

// updateCanHit is UpdateCanCover of Figure 5: clear canHit for every
// uncovered set with an empty intersection with cand. It saves canHit
// first; restoreCanHit undoes it.
func (st *state) updateCanHit() {
	if st.nsaved == len(st.saved) {
		st.saved = append(st.saved, bitset.New(len(st.sets)))
	}
	copy(st.saved[st.nsaved], st.canHit)
	st.nsaved++
	for wi, w := range st.top().uncov {
		w &= st.canHit[wi]
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if !st.sets[k].Intersects(st.cand) {
				st.canHit.Clear(k)
			}
		}
	}
}

// restoreCanHit reverses the last live updateCanHit.
func (st *state) restoreCanHit() {
	st.nsaved--
	copy(st.canHit, st.saved[st.nsaved])
}

// removeOperatorVariants drops from cand all predicates that differ
// from e only by operator (Section 6.2), returning the removed ones.
func (st *state) removeOperatorVariants(e int) []int {
	if st.ev.Space == nil {
		return nil
	}
	var removed []int
	for _, m := range st.ev.Space.GroupMembers(e) {
		if m != e && st.cand.Test(m) {
			st.cand.Clear(m)
			removed = append(removed, m)
		}
	}
	return removed
}

// descend recurses into the child subtree reached by move m, unless the
// offload hook (parallel mode) hands the subtree to another worker.
func (st *state) descend(m move) {
	if st.offload != nil {
		if st.offload(m) {
			return
		}
		st.path = append(st.path, m)
		st.adcEnum()
		st.path = st.path[:len(st.path)-1]
		return
	}
	st.adcEnum()
}

// passedAt returns the pooled, zeroed sibling-outcome mask for branch-2
// recursion depth d, sized for n candidates.
func (st *state) passedAt(d, n int) []uint64 {
	for len(st.passedPool) <= d {
		st.passedPool = append(st.passedPool, nil)
	}
	words := (n + 63) / 64
	buf := st.passedPool[d]
	if cap(buf) < words {
		buf = make([]uint64, words)
	}
	buf = buf[:words]
	for i := range buf {
		buf[i] = 0
	}
	st.passedPool[d] = buf
	return buf
}

func (st *state) adcEnum() {
	st.stats.Calls++
	if st.loss(nil) <= st.opts.Epsilon {
		if st.isMinimal() {
			st.emitCover()
		}
		return
	}
	if st.opts.MaxPredicates > 0 && len(st.s) >= st.opts.MaxPredicates {
		return
	}
	f := st.chooseUncov(true)
	if f < 0 {
		return
	}

	// Branch 1 (Figure 4, lines 7–12): do not hit F. Remove all of F's
	// elements from cand, drop the sets no candidate hits any more from
	// canHit, and recurse if the optimistic extension can still reach ε.
	removedCand := st.candidatesIn(f)
	for _, e := range removedCand {
		st.cand.Clear(e)
	}
	st.updateCanHit()
	if st.willCover() {
		st.descend(move{take: moveSkip})
	}
	st.restoreCanHit()
	for _, e := range removedCand {
		st.cand.Set(e)
	}

	// Branch 2 (lines 13–22): hit F, exactly as in MMCS, plus the
	// operator-variant removal of Section 6.2.
	c := st.candidatesIn(f)
	for _, e := range c {
		st.cand.Clear(e)
	}
	// In parallel mode, record which candidates pass the crit check, so
	// an offloaded later sibling can replay this node without re-running
	// the checks (the mask rides along in the task's move).
	var passed []uint64
	if st.offload != nil {
		passed = st.passedAt(len(st.s), len(c))
	}
	for i, e := range c {
		if !st.push(e) {
			continue
		}
		variants := st.removeOperatorVariants(e)
		st.descend(move{take: int32(i), passed: passed})
		st.pop()
		for _, m := range variants {
			st.cand.Set(m)
		}
		st.cand.Set(e)
		if passed != nil {
			passed[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for _, e := range c {
		st.cand.Set(e)
	}
}
