// Package hitset implements the two hitting-set enumerators of the
// paper: MMCS, the exact minimal-hitting-set algorithm of Murakami and
// Uno (Figure 3), and ADCEnum, the paper's algorithm for enumerating
// minimal *approximate* hitting sets (Figures 4 and 5). Both operate on
// an evidence set (package evidence): the elements of the universe are
// predicate IDs and the subsets to hit are the distinct evidence sets,
// weighted by multiplicity.
//
// ADCEnum runs either as the classic sequential recursion or, with
// Options.Workers, as a parallel enumeration: the search tree is cut
// into subtrees identified by their move sequence from the root, and a
// work-stealing worker pool replays and enumerates them with per-worker
// bookkeeping (see parallel.go). Both modes emit exactly the same set
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

// state carries the shared bookkeeping of Figures 3 and 4: uncov, cand,
// crit, canHit, and the growing hitting set S, all with undo logs so the
// recursion restores them exactly as the pseudo-code's "recover" lines
// require.
//
// Every branch decision below is a pure function of the *set-valued*
// state (which sets are uncovered, which elements are candidates, which
// sets each element is critical for) and never of the incidental order
// the bookkeeping slices ended up in. The parallel enumerator depends on
// this: a worker replays a move sequence from a fresh root and must make
// exactly the choices the enqueuing worker made, even though its slices
// are permuted differently (see parallel.go).
type state struct {
	ev    *evidence.Set
	opts  Options
	emit  func(bitset.Bits)
	stats Stats

	universe int
	sets     []bitset.Bits

	uncov     []int       // indexes of sets not yet hit by S
	uncovPos  []int       // position of set k in uncov, or -1
	uncovBits bitset.Bits // same membership as uncov, for canonical scans
	canHit    []bool
	crit      [][]int // crit[e]: sets for which e is critical
	cand      bitset.Bits
	s         []int       // the growing hitting set S
	sBits     bitset.Bits // same as s, as a bitset

	// occ[e] lists the distinct sets containing element e, so that
	// adding an element touches only its own occurrences instead of
	// scanning all of uncov — the O(‖M‖)-per-iteration bound of
	// Murakami and Uno. For ubiquitous elements updateCritUncov falls
	// back to scanning uncov and the crit lists, whichever is cheaper.
	occ [][]int32
	// critFor[k] is the element set k is critical for, else -1;
	// critPos[k] is k's position inside crit[critFor[k]].
	critFor []int32
	critPos []int32
	// critTotal is the summed length of all crit lists, maintained so
	// updateCritUncov can cost its two strategies.
	critTotal int
	// logs pools one undo log per recursion depth, reused across the
	// candidate loop to avoid per-call allocation.
	logs []addLog

	// eval moves sets in and out of tallies. tally is the live tally
	// of uncov, updated as sets are covered and uncovered (the
	// bookkeeping the paper applies to f1 in Section 5), so a loss never
	// rescans the uncovered sets. unhittable is willCover's reusable
	// list.
	eval       *Evaluator
	tally      approx.Tally
	unhittable []int

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

func newState(ev *evidence.Set, opts Options) *state {
	universe := universeSize(ev)
	st := &state{
		ev:        ev,
		opts:      opts,
		universe:  universe,
		sets:      ev.Sets,
		uncovPos:  make([]int, len(ev.Sets)),
		uncovBits: bitset.New(len(ev.Sets)),
		canHit:    make([]bool, len(ev.Sets)),
		crit:      make([][]int, universe),
		cand:      bitset.New(universe),
		sBits:     bitset.New(universe),
		occ:       make([][]int32, universe),
		critFor:   make([]int32, len(ev.Sets)),
		critPos:   make([]int32, len(ev.Sets)),
		eval:      NewEvaluator(ev, opts.Func),
	}
	st.tally = st.eval.newTally()
	for k := range ev.Sets {
		st.uncov = append(st.uncov, k)
		st.uncovPos[k] = k
		st.uncovBits.Set(k)
		st.eval.add(&st.tally, k)
		st.canHit[k] = true
		st.critFor[k] = -1
		ev.Sets[k].ForEach(func(e int) {
			st.occ[e] = append(st.occ[e], int32(k))
		})
	}
	for e := 0; e < universe; e++ {
		st.cand.Set(e)
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

// ---- uncov maintenance -------------------------------------------------

func (st *state) uncovRemove(k int) {
	pos := st.uncovPos[k]
	last := len(st.uncov) - 1
	moved := st.uncov[last]
	st.uncov[pos] = moved
	st.uncovPos[moved] = pos
	st.uncov = st.uncov[:last]
	st.uncovPos[k] = -1
	st.uncovBits.Clear(k)
	st.eval.remove(&st.tally, k)
}

func (st *state) uncovAdd(k int) {
	st.uncovPos[k] = len(st.uncov)
	st.uncov = append(st.uncov, k)
	st.uncovBits.Set(k)
	st.eval.add(&st.tally, k)
}

// critChange records the removal of set f from crit[u].
type critChange struct{ u, f int }

// addLog is the undo record of one UpdateCritUncov call.
type addLog struct {
	covered []int // sets moved from uncov to crit[e]
	stolen  []critChange
}

// critAppend adds set k to crit[u], maintaining the position index.
func (st *state) critAppend(u, k int) {
	st.critFor[k] = int32(u)
	st.critPos[k] = int32(len(st.crit[u]))
	st.crit[u] = append(st.crit[u], k)
	st.critTotal++
}

// critRemove removes set k from crit[critFor[k]] in O(1).
func (st *state) critRemove(k int) {
	u := int(st.critFor[k])
	pos := int(st.critPos[k])
	cu := st.crit[u]
	last := len(cu) - 1
	moved := cu[last]
	cu[pos] = moved
	st.critPos[moved] = int32(pos)
	st.crit[u] = cu[:last]
	st.critFor[k] = -1
	st.critTotal--
}

// logAt returns the pooled undo log for recursion depth d, emptied.
func (st *state) logAt(d int) *addLog {
	for len(st.logs) <= d {
		st.logs = append(st.logs, addLog{})
	}
	log := &st.logs[d]
	log.covered = log.covered[:0]
	log.stolen = log.stolen[:0]
	return log
}

// updateCritUncov is the subroutine of Figure 3: move every uncovered
// set containing e into crit[e], and remove from crit[u] (u ∈ S) every
// set containing e. Covered and stolen sets are recorded in the pooled
// log for depth d. Sets covered twice or more need no bookkeeping at
// all, so the cheaper of two strategies is used: walking e's occurrence
// list, or walking uncov plus the current crit lists (better for
// ubiquitous elements deep in the recursion, where few sets remain
// uncovered or critical).
func (st *state) updateCritUncov(e, d int) *addLog {
	log := st.logAt(d)
	if len(st.occ[e]) <= len(st.uncov)+st.critTotal {
		for _, k32 := range st.occ[e] {
			k := int(k32)
			if st.uncovPos[k] >= 0 {
				st.uncovRemove(k)
				st.critAppend(e, k)
				log.covered = append(log.covered, k)
			} else if u := st.critFor[k]; u >= 0 && int(u) != e {
				st.critRemove(k)
				log.stolen = append(log.stolen, critChange{int(u), k})
			}
		}
		return log
	}
	for i := 0; i < len(st.uncov); {
		k := st.uncov[i]
		if st.sets[k].Test(e) {
			st.uncovRemove(k) // swap-remove: same index now holds a new set
			st.critAppend(e, k)
			log.covered = append(log.covered, k)
			continue
		}
		i++
	}
	for _, u := range st.s {
		// Index st.crit[u] directly: critRemove swap-removes in place.
		for i := 0; i < len(st.crit[u]); {
			k := st.crit[u][i]
			if st.sets[k].Test(e) {
				st.critRemove(k)
				log.stolen = append(log.stolen, critChange{u, k})
				continue
			}
			i++
		}
	}
	return log
}

// undoCritUncov reverses updateCritUncov(e, d).
func (st *state) undoCritUncov(log *addLog) {
	for i := len(log.stolen) - 1; i >= 0; i-- {
		c := log.stolen[i]
		st.critAppend(c.u, c.f)
	}
	for i := len(log.covered) - 1; i >= 0; i-- {
		k := log.covered[i]
		st.critRemove(k)
		st.uncovAdd(k)
	}
}

// critNonEmptyForAll reports whether every element of S is still
// critical for at least one set (the minimality precondition of
// Figure 3, line 9 / Figure 4, line 17).
func (st *state) critNonEmptyForAll() bool {
	for _, u := range st.s {
		if len(st.crit[u]) == 0 {
			return false
		}
	}
	return true
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
// The scan walks uncovBits in set-index order with ties going to the
// lowest index, so the choice is a pure function of the uncovered set —
// not of the incidental order uncov's swap-removes produced. The
// parallel enumerator's replay correctness depends on this (the serial
// enumerator only needs *some* deterministic rule).
func (st *state) chooseUncov(restrict bool) int {
	best, bestN := -1, -1
	scanned := 0
	for wi, w := range st.uncovBits {
		for w != 0 {
			k := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if restrict && !st.canHit[k] {
				continue
			}
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
	if len(st.uncov) == 0 {
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
		log := st.updateCritUncov(e, len(st.s))
		if st.critNonEmptyForAll() && len(st.crit[e]) > 0 {
			variants := st.removeOperatorVariants(e)
			st.push(e)
			st.mmcs()
			st.pop(e)
			for _, m := range variants {
				st.cand.Set(m)
			}
			st.cand.Set(e)
		}
		st.undoCritUncov(log)
	}
	for _, e := range c {
		st.cand.Set(e)
	}
}

func (st *state) push(e int) {
	st.s = append(st.s, e)
	st.sBits.Set(e)
}

func (st *state) pop(e int) {
	st.s = st.s[:len(st.s)-1]
	st.sBits.Clear(e)
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
func (st *state) loss(extra []int) float64 {
	st.stats.LossEvals++
	return st.eval.lossWith(&st.tally, extra)
}

// isMinimal is the subroutine of Figure 5: S is minimal iff no single
// deletion keeps the loss within ε. The uncovered sets of S \ {u} are
// uncov ∪ crit[u]. Monotonicity makes single deletions sufficient.
func (st *state) isMinimal() bool {
	for _, u := range st.s {
		if st.loss(st.crit[u]) <= st.opts.Epsilon {
			return false
		}
	}
	return true
}

// willCover is the subroutine of Figure 5: the best any extension of S
// by remaining candidates can do is cover every uncovered set that still
// intersects cand; the sets that cannot be hit are exactly those marked
// canHit=false (the caller runs updateCanHit first). If even that loss
// exceeds ε, monotonicity prunes the branch.
func (st *state) willCover() bool {
	st.stats.LossEvals++
	st.unhittable = st.unhittable[:0]
	for _, k := range st.uncov {
		if !st.canHit[k] {
			st.unhittable = append(st.unhittable, k)
		}
	}
	return st.eval.LossOf(st.unhittable) <= st.opts.Epsilon
}

// updateCanHit is UpdateCanCover of Figure 5: mark every uncovered set
// with an empty intersection with cand as unhittable. Returns the sets
// flipped, for undo.
func (st *state) updateCanHit() []int {
	var flipped []int
	for _, k := range st.uncov {
		if st.canHit[k] && !st.sets[k].Intersects(st.cand) {
			st.canHit[k] = false
			flipped = append(flipped, k)
		}
	}
	return flipped
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
	// elements from cand, mark newly unhittable sets, and recurse if the
	// optimistic extension can still reach ε.
	removedCand := st.candidatesIn(f)
	for _, e := range removedCand {
		st.cand.Clear(e)
	}
	flipped := st.updateCanHit()
	if st.willCover() {
		st.descend(move{take: moveSkip})
	}
	for _, k := range flipped {
		st.canHit[k] = true
	}
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
		log := st.updateCritUncov(e, len(st.s))
		if st.critNonEmptyForAll() && len(st.crit[e]) > 0 {
			variants := st.removeOperatorVariants(e)
			st.push(e)
			st.descend(move{take: int32(i), passed: passed})
			st.pop(e)
			for _, m := range variants {
				st.cand.Set(m)
			}
			st.cand.Set(e)
			if passed != nil {
				passed[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		st.undoCritUncov(log)
	}
	for _, e := range c {
		st.cand.Set(e)
	}
}
