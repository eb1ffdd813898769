package evidence

import (
	"fmt"

	"adc/internal/predicate"
)

// TiledBuilder runs AutoBuilder's kernel with the worker count and tile
// edge fixed, so tests can reach partial tiles and worker splits that
// the heuristic would not pick on small inputs. TileSize 0 is the
// production tile; Workers 0 means 1.
type TiledBuilder struct {
	Workers, TileSize int
}

// Build constructs Evi(D) with the fixed kernel parameters.
func (b TiledBuilder) Build(space *predicate.Space, withVios bool) (*Set, error) {
	n := space.Rel.NumRows()
	if n < 2 {
		return nil, fmt.Errorf("evidence: need at least 2 rows, have %d", n)
	}
	workers := max(b.Workers, 1)
	return prepareClusters(preparePlan(space, nil), n, b.TileSize).run(space, withVios, workers), nil
}
