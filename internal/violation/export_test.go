package violation

// pathBinary names the historical two-way choice: join iff its
// candidate pairs, scaled by pliAdvantage, undercut the full scan; no
// range shape. The planner benchmark gate measures against it.
const pathBinary = "binary"

// forced returns opts with the execution shape pinned: PathPLI forces
// the cluster-intersection join and PathRange the sorted-rank range
// probe (each falls back to the scan when the DC has no structure for
// it, as reported in DCResult.Path), pathBinary runs the historical
// heuristic, and any other name is passed through as Options.Path.
func forced(path string, opts Options) Options {
	switch path {
	case PathPLI:
		opts.force = func(cache *pliCache, p *dcPlan, n int) *queryPlan {
			if pp := p.pliPlan(cache); pp != nil {
				return joinQueryPlan(pp)
			}
			return scanQueryPlan(p, n)
		}
	case PathRange:
		opts.force = func(cache *pliCache, p *dcPlan, n int) *queryPlan {
			if rp := p.rangePlan(cache); rp != nil {
				return rangeQueryPlan(rp)
			}
			return scanQueryPlan(p, n)
		}
	case pathBinary:
		opts.force = func(cache *pliCache, p *dcPlan, n int) *queryPlan {
			if pp := p.pliPlan(cache); pp != nil && pp.candPairs*pliAdvantage <= int64(n)*int64(n-1) {
				return joinQueryPlan(pp)
			}
			return scanQueryPlan(p, n)
		}
	default:
		opts.Path = path
	}
	return opts
}
