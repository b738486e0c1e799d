// Uniform-grid spatial index for unit-disk neighbor queries.
//
// GridIndex has two constructors for the simulator's two access patterns:
//
//   - NewGridIndex starts empty, and values then move, appear and disappear
//     one at a time (radio stations under mobility, death and recovery).
//     The table grows on demand, so the field may be unbounded.
//   - IndexPoints indexes a fixed point set in one counting sort, the value
//     of a point being its index (topology construction, power control and
//     placement build one per field).
//
// Either way the cells are one dense, row-major table over the box the
// positions occupy, kept at O(n) cells by coarsening the cell when the
// points are sparse for it. A query answers "every value within r of
// center" by scanning the O((r/cell)²) cells overlapping the query disk and
// filtering on squared distance, so it costs O(neighborhood) instead of
// O(n). The squared-distance filter `Dist2(p, c) <= r*r` is byte-equivalent
// to the `Dist(p, c) <= r` the brute-force paths used: for IEEE doubles
// sqrt is correctly rounded and monotone, so fl(sqrt(x)) <= r exactly when
// x <= fl(r*r).
package geom

import (
	"fmt"
	"math"
)

type gridEntry[T comparable] struct {
	pos Point
	v   T
}

// GridIndex is a uniform-grid spatial index over values of type T. The
// cells form one dense, row-major table over a box that holds every
// position ever indexed (IndexPoints starts from the points' bounding box):
// a position outside the table grows the box, with slack, and re-buckets
// every entry, so a field swept in order re-buckets O(log) times. The cell
// edge starts at the one asked for and is doubled while the table would
// exceed 4n+64 cells, and halved again as n grows, so a few far-flung
// values cannot blow the table up. Values are bucketed by their position;
// the bucket order is an implementation detail, so callers needing
// determinism must sort query results (the radio medium sorts by station
// ID). Positions must be finite: Insert, Move and IndexPoints panic on a
// NaN or infinite coordinate.
type GridIndex[T comparable] struct {
	base float64 // the cell edge asked for
	cell float64 // base·2^k, the edge the table uses
	// The box holds every position ever inserted; the table starts at its
	// lower corner and has nx·ny cells. Cell (cx, cy) is cells[cy*nx+cx].
	minX, minY, maxX, maxY float64
	nx, ny                 int
	cells                  [][]gridEntry[T]
	n                      int
	refineAt               int // the count at which the table re-buckets at half the cell
}

// NewGridIndex returns an empty index with the given cell edge. The cell
// size only affects performance, never results; it should be on the order
// of the typical query radius.
func NewGridIndex[T comparable](cellSize float64) *GridIndex[T] {
	if cellSize <= 0 || math.IsNaN(cellSize) {
		panic("geom: non-positive grid cell size")
	}
	return &GridIndex[T]{base: cellSize, cell: cellSize}
}

// CellSize returns the cell edge the index was made with. The table may
// use a coarser one while the values are sparse for it.
func (g *GridIndex[T]) CellSize() float64 { return g.base }

// Len returns the number of indexed values.
func (g *GridIndex[T]) Len() int { return g.n }

// axisCoord returns the cell coordinate of v on an axis whose table starts
// at lo, for cell edge cell. Halving v and lo first keeps their difference
// finite for any finite pair; every step is monotone, so v <= w implies
// axisCoord(v) <= axisCoord(w), which the query window relies on.
func axisCoord(v, lo, cell float64) float64 {
	return math.Floor((v/2 - lo/2) / cell * 2)
}

// cellOf returns p's cell in the table, or false when p lies outside it
// (NaN coordinates included).
func (g *GridIndex[T]) cellOf(p Point) (int, bool) {
	cx, cy := axisCoord(p.X, g.minX, g.cell), axisCoord(p.Y, g.minY, g.cell)
	if !(cx >= 0 && cx < float64(g.nx) && cy >= 0 && cy < float64(g.ny)) {
		return 0, false
	}
	return int(cy)*g.nx + int(cx), true
}

// clampCoord maps a cell coordinate into [0, n): a window edge off the
// table, infinite or NaN lands on the table's border.
func clampCoord(c float64, n int) int {
	switch {
	case !(c > 0):
		return 0
	case c >= float64(n):
		return n - 1
	}
	return int(c)
}

func mustBeFinite(p Point) {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		panic(fmt.Sprintf("geom: non-finite grid position %v", p))
	}
}

// cover widens the box to hold p. With slack, a side that moves goes on
// past p by half the box's new extent.
func (g *GridIndex[T]) cover(p Point, slack bool) {
	if p.X < g.minX {
		g.minX = p.X
		if slack {
			g.minX = math.Max(p.X-(g.maxX/2-p.X/2), -math.MaxFloat64)
		}
	}
	if p.X > g.maxX {
		g.maxX = p.X
		if slack {
			g.maxX = math.Min(p.X+(p.X/2-g.minX/2), math.MaxFloat64)
		}
	}
	if p.Y < g.minY {
		g.minY = p.Y
		if slack {
			g.minY = math.Max(p.Y-(g.maxY/2-p.Y/2), -math.MaxFloat64)
		}
	}
	if p.Y > g.maxY {
		g.maxY = p.Y
		if slack {
			g.maxY = math.Min(p.Y+(p.Y/2-g.minY/2), math.MaxFloat64)
		}
	}
}

// tableCells returns how many cells a table over the box has at edge cell,
// as a float so that a huge box cannot overflow it.
func (g *GridIndex[T]) tableCells(cell float64) float64 {
	return (axisCoord(g.maxX, g.minX, cell) + 1) * (axisCoord(g.maxY, g.minY, cell) + 1)
}

// layout gives the index an empty table over its box at the finest cell,
// from the base edge up by doublings, at which the table holds at most
// 4n+64 cells. Coarsening never changes a query result: membership is
// decided by the squared-distance filter alone.
func (g *GridIndex[T]) layout() {
	limit := float64(4*g.n + 64)
	cell := g.base
	for g.tableCells(cell) > limit {
		cell *= 2
	}
	g.cell = cell
	g.refineAt = math.MaxInt
	if cell > g.base {
		// The count at which half this edge fits: 4n+64 >= finer.
		if finer := g.tableCells(cell / 2); finer < float64(math.MaxInt/8) {
			g.refineAt = int((finer-64)/4) + 1
		}
	}
	g.nx = int(axisCoord(g.maxX, g.minX, cell)) + 1
	g.ny = int(axisCoord(g.maxY, g.minY, cell)) + 1
	g.cells = make([][]gridEntry[T], g.nx*g.ny)
}

// carve is the middle of a counting sort into the table layout made: on
// entry count[c+1] is the number of entries cell c will hold. It turns
// count into each cell's start in one new array, which it returns, and
// makes every occupied cell its span of that array, capped at its length.
// The caller then puts each entry of cell c at flat[count[c]] and
// increments count[c], so filling a table costs three allocations (table,
// count and array) whatever the size.
func (g *GridIndex[T]) carve(count []int32) []gridEntry[T] {
	for c := 1; c < len(count); c++ {
		count[c] += count[c-1]
	}
	flat := make([]gridEntry[T], count[len(count)-1])
	for c := range g.cells {
		if lo, hi := count[c], count[c+1]; hi > lo {
			g.cells[c] = flat[lo:hi:hi]
		}
	}
	return flat
}

// resize lays the table out again for the current box and count, and
// re-buckets every entry into it.
func (g *GridIndex[T]) resize() {
	old := g.cells
	g.layout()
	if g.n <= 1 {
		return // nothing to move: the caller is placing the first value
	}
	count := make([]int32, len(g.cells)+1)
	for _, b := range old {
		for _, e := range b {
			c, _ := g.cellOf(e.pos)
			count[c+1]++
		}
	}
	flat := g.carve(count)
	for _, b := range old {
		for _, e := range b {
			c, _ := g.cellOf(e.pos)
			flat[count[c]] = e
			count[c]++
		}
	}
}

// IndexPoints returns an index over pts in which pts[i] has the value i,
// with the given cell edge, as a batch: the table is laid out over the
// points' bounding box and filled straight from pts by one counting sort,
// four allocations whatever the size. A NaN or infinite point panics. A
// query does not change the index, so concurrent queries may share it.
func IndexPoints(pts []Point, cellSize float64) *GridIndex[int32] {
	g := NewGridIndex[int32](cellSize)
	if len(pts) == 0 {
		return g
	}
	g.minX, g.maxX, g.minY, g.maxY = pts[0].X, pts[0].X, pts[0].Y, pts[0].Y
	for _, p := range pts {
		mustBeFinite(p)
		g.cover(p, false)
	}
	g.n = len(pts)
	g.layout()
	count := make([]int32, len(g.cells)+1)
	for _, p := range pts {
		c, _ := g.cellOf(p)
		count[c+1]++
	}
	flat := g.carve(count)
	for i, p := range pts {
		c, _ := g.cellOf(p)
		flat[count[c]] = gridEntry[int32]{pos: p, v: int32(i)}
		count[c]++
	}
	return g
}

// Insert indexes v at p. Inserting the same value twice (even at different
// positions) corrupts the index; callers keep one position per value. A
// non-finite p panics, with the index unchanged.
func (g *GridIndex[T]) Insert(v T, p Point) {
	mustBeFinite(p)
	c, ok := g.cellOf(p)
	switch {
	case g.nx == 0:
		g.minX, g.maxX, g.minY, g.maxY = p.X, p.X, p.Y, p.Y
	default:
		g.cover(p, !ok)
	}
	g.n++
	if !ok || g.n >= g.refineAt {
		g.resize()
		c, _ = g.cellOf(p)
	}
	g.cells[c] = append(g.cells[c], gridEntry[T]{pos: p, v: v})
}

// Remove unindexes v, which must have been inserted at p (its current
// position). It reports whether the value was found.
func (g *GridIndex[T]) Remove(v T, p Point) bool {
	c, ok := g.cellOf(p)
	if !ok {
		return false
	}
	b := g.cells[c]
	for i := range b {
		if b[i].v == v {
			last := len(b) - 1
			b[i] = b[last]
			b[last] = gridEntry[T]{}
			g.cells[c] = b[:last]
			g.n--
			return true
		}
	}
	return false
}

// Move relocates v from its current position to another. When both lie in
// the same cell this is a single in-place update and no bucket churn. A
// non-finite destination panics, with the index unchanged.
func (g *GridIndex[T]) Move(v T, from, to Point) bool {
	mustBeFinite(to)
	cf, okf := g.cellOf(from)
	if !okf {
		return false
	}
	if ct, okt := g.cellOf(to); okt && ct == cf {
		b := g.cells[cf]
		for i := range b {
			if b[i].v == v {
				b[i].pos = to
				g.cover(to, false)
				return true
			}
		}
		return false
	}
	if !g.Remove(v, from) {
		return false
	}
	g.Insert(v, to)
	return true
}

// AppendWithin appends to out every indexed value whose distance to center
// is at most r, excluding except (pass a value never inserted to disable
// exclusion). Results are in no particular order. The append-to-buffer
// shape keeps the hot path free of closures and per-query allocation.
//
// Membership is decided solely by the squared-distance filter; the cell
// window is padded by a sliver of the radius and the cell, so rounding in
// the window arithmetic can never exclude a point the filter would accept.
// A radius whose square overflows admits every point whose squared
// distance overflows too, however far, so its window is the whole table.
func (g *GridIndex[T]) AppendWithin(out []T, center Point, r float64, except T) []T {
	if g.n == 0 || r < 0 || math.IsNaN(r) {
		return out
	}
	r2 := r * r
	rw := r + (r+g.cell)*1e-9
	if math.IsInf(r2, 1) {
		rw = r2
	}
	x0 := clampCoord(axisCoord(center.X-rw, g.minX, g.cell), g.nx)
	x1 := clampCoord(axisCoord(center.X+rw, g.minX, g.cell), g.nx)
	y0 := clampCoord(axisCoord(center.Y-rw, g.minY, g.cell), g.ny)
	y1 := clampCoord(axisCoord(center.Y+rw, g.minY, g.cell), g.ny)
	for cy := y0; cy <= y1; cy++ {
		row := g.cells[cy*g.nx : (cy+1)*g.nx]
		for cx := x0; cx <= x1; cx++ {
			for _, e := range row[cx] {
				if e.v == except {
					continue
				}
				if e.pos.Dist2(center) <= r2 {
					out = append(out, e.v)
				}
			}
		}
	}
	return out
}
