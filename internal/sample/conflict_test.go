package sample

// The conflict graph of Section 7.1 — a directed graph whose vertices
// are tuples and whose edges are ordered tuple pairs violating a DC —
// built explicitly, as the reference the estimator tests below check
// against: the density estimator p̂ of EstimateP, the "random polluter"
// model (each edge present independently with probability p) against
// which the estimator's unbiasedness is validated, and the greedy
// vertex cover the paper contrasts with the exact (NP-hard)
// cardinality repair behind f3.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"adc/internal/datagen"
	"adc/internal/predicate"
)

// conflictGraph is a directed conflict graph over n tuples.
type conflictGraph struct {
	n     int
	edges [][2]int
	deg   []int // undirected participation count per vertex
}

func newConflictGraph(n int, edges [][2]int) *conflictGraph {
	g := &conflictGraph{n: n, edges: edges, deg: make([]int, n)}
	for _, e := range edges {
		g.deg[e[0]]++
		g.deg[e[1]]++
	}
	return g
}

// conflictGraphOf materializes the conflict graph of a DC over its
// relation by scanning all ordered pairs. Quadratic.
func conflictGraphOf(dc predicate.DC) *conflictGraph {
	return newConflictGraph(dc.Space.Rel.NumRows(), dc.ViolatingPairs())
}

// randomConflictGraph draws a graph from the random-polluter
// distribution: every ordered edge (i, j), i ≠ j, appears independently
// with probability p.
func randomConflictGraph(n int, p float64, rng *rand.Rand) *conflictGraph {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return newConflictGraph(n, edges)
}

// density returns p = |E| / (n·(n−1)), the violating fraction of
// ordered pairs (1 − f1 of the corresponding DC).
func (g *conflictGraph) density() float64 {
	return EstimateP(int64(len(g.edges)), g.n)
}

// involvedVertices returns the number of vertices with degree > 0 —
// the numerator of 1 − f2.
func (g *conflictGraph) involvedVertices() int {
	n := 0
	for _, d := range g.deg {
		if d > 0 {
			n++
		}
	}
	return n
}

// inducedDensity returns the density of the subgraph induced by the
// given vertex subset — p̂ when the subset is a uniform sample.
func (g *conflictGraph) inducedDensity(vertices []int) float64 {
	in := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		in[v] = true
	}
	var edges int64
	for _, e := range g.edges {
		if in[e[0]] && in[e[1]] {
			edges++
		}
	}
	return EstimateP(edges, len(vertices))
}

// greedyVertexCover runs the classic greedy heuristic: repeatedly take
// the vertex covering the most uncovered edges. Removing the cover from
// the database satisfies the DC, so len(cover)/n upper-bounds 1 − f3.
func (g *conflictGraph) greedyVertexCover() []int {
	covered := make([]bool, len(g.edges))
	remaining := len(g.edges)
	adj := make([][]int, g.n)
	for idx, e := range g.edges {
		adj[e[0]] = append(adj[e[0]], idx)
		if e[1] != e[0] {
			adj[e[1]] = append(adj[e[1]], idx)
		}
	}
	var cover []int
	for remaining > 0 {
		best, bestCnt := -1, 0
		for v := 0; v < g.n; v++ {
			cnt := 0
			for _, idx := range adj[v] {
				if !covered[idx] {
					cnt++
				}
			}
			if cnt > bestCnt {
				best, bestCnt = v, cnt
			}
		}
		if best < 0 {
			break
		}
		for _, idx := range adj[best] {
			if !covered[idx] {
				covered[idx] = true
				remaining--
			}
		}
		cover = append(cover, best)
	}
	sort.Ints(cover)
	return cover
}

// minVertexCoverSize computes the exact minimum vertex cover size by
// exhaustive search. Exponential; tiny graphs only.
func (g *conflictGraph) minVertexCoverSize() int {
	for k := 0; k <= g.n; k++ {
		if g.hasCoverOfSize(k, make([]bool, g.n)) {
			return k
		}
	}
	return g.n
}

func (g *conflictGraph) hasCoverOfSize(k int, chosen []bool) bool {
	uncov := -1
	for idx, e := range g.edges {
		if !chosen[e[0]] && !chosen[e[1]] {
			uncov = idx
			break
		}
	}
	if uncov == -1 {
		return true
	}
	if k == 0 {
		return false
	}
	e := g.edges[uncov]
	for _, v := range []int{e[0], e[1]} {
		if chosen[v] {
			continue
		}
		chosen[v] = true
		found := g.hasCoverOfSize(k-1, chosen)
		chosen[v] = false
		if found {
			return true
		}
	}
	return false
}

func phi2Graph(t *testing.T) *conflictGraph {
	t.Helper()
	rel := datagen.RunningExample()
	space := predicate.Build(rel, predicate.DefaultOptions())
	dc, err := predicate.FromSpecs(space, datagen.Phi2())
	if err != nil {
		t.Fatal(err)
	}
	return conflictGraphOf(dc)
}

func TestFromDCOnRunningExample(t *testing.T) {
	g := phi2Graph(t)
	if len(g.edges) != 16 {
		t.Fatalf("edges = %d, want 16", len(g.edges))
	}
	if got, want := g.density(), 16.0/210.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("density = %v, want %v", got, want)
	}
	// t15 (index 14) participates in all 16 violations.
	if g.deg[14] != 16 {
		t.Errorf("degree(t15) = %d, want 16", g.deg[14])
	}
	// ϕ2 involves t15 plus t6..t13: 9 vertices.
	if g.involvedVertices() != 9 {
		t.Errorf("involved = %d, want 9", g.involvedVertices())
	}
}

func TestGreedyVertexCoverPhi2(t *testing.T) {
	g := phi2Graph(t)
	cover := g.greedyVertexCover()
	if len(cover) != 1 || cover[0] != 14 {
		t.Fatalf("greedy cover = %v, want [14] (t15 alone)", cover)
	}
	if g.minVertexCoverSize() != 1 {
		t.Errorf("exact min cover = %d, want 1", g.minVertexCoverSize())
	}
}

func TestGreedyCoverIsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := randomConflictGraph(8, 0.15, rng)
		cover := g.greedyVertexCover()
		in := map[int]bool{}
		for _, v := range cover {
			in[v] = true
		}
		for _, e := range g.edges {
			if !in[e[0]] && !in[e[1]] {
				t.Fatalf("edge %v uncovered by %v", e, cover)
			}
		}
		// Sanity: greedy never beats the exact optimum.
		if opt := g.minVertexCoverSize(); len(cover) < opt {
			t.Fatalf("greedy %d below optimum %d", len(cover), opt)
		}
	}
}

// TestEstimatorUnbiased validates Section 7.1: over random induced
// subsamples of random-polluter graphs, the mean of p̂ approaches p.
func TestEstimatorUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, p = 60, 0.08
	g := randomConflictGraph(n, p, rng)
	truth := g.density()
	const trials = 400
	var sum float64
	for trial := 0; trial < trials; trial++ {
		rows := rng.Perm(n)[:24]
		sort.Ints(rows)
		sum += g.inducedDensity(rows)
	}
	mean := sum / trials
	if math.Abs(mean-truth) > 0.01 {
		t.Errorf("mean p̂ = %v, true p = %v (estimator bias too large)", mean, truth)
	}
}

// TestChebyshevHoldsEmpirically draws many samples and checks the
// deviation probability is within the paper's (loose) bound.
func TestChebyshevHoldsEmpirically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, p, k = 50, 0.1, 20
	g := randomConflictGraph(n, p, rng)
	truth := g.density()
	const trials = 300
	a := 0.08
	exceed := 0
	for trial := 0; trial < trials; trial++ {
		rows := rng.Perm(n)[:k]
		sort.Ints(rows)
		if math.Abs(g.inducedDensity(rows)-truth) > a {
			exceed++
		}
	}
	bound := ChebyshevBound(truth, k, a)
	if got := float64(exceed) / trials; got > bound+0.05 {
		t.Errorf("empirical deviation rate %v exceeds Chebyshev bound %v", got, bound)
	}
}

func TestInducedDensityDegenerate(t *testing.T) {
	g := newConflictGraph(3, [][2]int{{0, 1}})
	if g.inducedDensity([]int{0}) != 0 {
		t.Error("single-vertex induced density should be 0")
	}
	if got := g.inducedDensity([]int{0, 1}); got != 0.5 {
		t.Errorf("induced density = %v, want 0.5", got)
	}
}

func TestRandomGraphDensityConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConflictGraph(120, 0.05, rng)
	if d := g.density(); math.Abs(d-0.05) > 0.01 {
		t.Errorf("random polluter density = %v, want ≈ 0.05", d)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := newConflictGraph(1, nil)
	if g.density() != 0 || g.involvedVertices() != 0 {
		t.Error("empty graph invariants broken")
	}
	if cover := g.greedyVertexCover(); len(cover) != 0 {
		t.Errorf("cover of empty graph = %v", cover)
	}
}
