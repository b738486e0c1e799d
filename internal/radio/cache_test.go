package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
	"wmsn/internal/sim"
)

// cacheModel drives a medium through random topology, range, listening and
// transmit operations and checks the receiver cache against InRange, the
// uncached oracle, after every step.
type cacheModel struct {
	t     *testing.T
	rng   *rand.Rand
	k     *sim.Kernel
	m     *Medium
	cell  float64
	side  float64
	next  packet.NodeID
	heard []packet.NodeID // stations whose handler ran, in call order
}

func (c *cacheModel) point() geom.Point {
	return geom.Point{X: c.rng.Float64() * c.side, Y: c.rng.Float64() * c.side}
}

func (c *cacheModel) attach() {
	id := c.next
	c.next++
	c.m.Attach(id, c.point(), c.rng.Float64()*3*c.cell, func(*packet.Packet) {
		c.heard = append(c.heard, id)
	})
}

// pick returns a random attached station, or nil when there is none.
func (c *cacheModel) pick() *Station {
	ids := c.ids()
	if len(ids) == 0 {
		return nil
	}
	return c.m.stations[ids[c.rng.Intn(len(ids))]]
}

func (c *cacheModel) ids() []packet.NodeID {
	ids := make([]packet.NodeID, 0, len(c.m.stations))
	for id := range c.m.stations {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// cellOrigin is the lower corner of the grid cell holding p.
func (c *cacheModel) cellOrigin(p geom.Point) geom.Point {
	return geom.Point{X: math.Floor(p.X/c.cell) * c.cell, Y: math.Floor(p.Y/c.cell) * c.cell}
}

// moveWithinCell relocates s to a random point of the grid cell it is in.
func (c *cacheModel) moveWithinCell(s *Station) {
	o := c.cellOrigin(s.pos)
	s.Move(geom.Point{X: o.X + c.rng.Float64()*c.cell, Y: o.Y + c.rng.Float64()*c.cell})
}

// moveAcrossCells relocates s to a random point in another grid cell.
func (c *cacheModel) moveAcrossCells(s *Station) {
	from := c.cellOrigin(s.pos)
	for {
		if p := c.point(); c.cellOrigin(p) != from {
			s.Move(p)
			return
		}
	}
}

// transmit sends from s with nothing lost and checks that exactly the
// listening in-range stations heard it, in ID order.
func (c *cacheModel) transmit(s *Station, what string) {
	var want []packet.NodeID
	for _, st := range c.m.InRange(s) {
		if st.listening {
			want = append(want, st.id)
		}
	}
	c.heard = c.heard[:0]
	c.m.Transmit(s, testPkt(s.id))
	c.k.RunAll()
	if !slices.Equal(c.heard, want) {
		c.t.Fatalf("%s: transmission from %v heard by %v, want %v", what, s.id, c.heard, want)
	}
}

// check asks the cache for every attached station three times (a changed
// key misses, then fills, then hits) and compares each answer with InRange.
func (c *cacheModel) check(what string) {
	var scratch []*Station
	for _, id := range c.ids() {
		s := c.m.stations[id]
		want := stationIDs(c.m.InRange(s))
		for ask := 0; ask < 3; ask++ {
			if got := stationIDs(c.m.receivers(s, s.rangeM, &scratch)); !slices.Equal(got, want) {
				c.t.Fatalf("%s: receivers(%v) ask %d = %v, InRange = %v", what, id, ask, got, want)
			}
		}
	}
}

func stationIDs(ss []*Station) []packet.NodeID {
	out := make([]packet.NodeID, len(ss))
	for i, s := range ss {
		out[i] = s.id
	}
	return out
}

// TestReceiverCacheMatchesInRange runs seeded random sequences of Attach,
// Detach, Move (within a cell and across cells), SetRange (grow, shrink,
// zero), SetListening and Transmit on a medium with a small grid cell, and
// after every step requires every station's cached receiver set to equal
// InRange. A cache that missed an invalidation (topology epoch or range
// key) serves a stale list and fails here.
func TestReceiverCacheMatchesInRange(t *testing.T) {
	ops := []string{"attach", "detach", "move-in-cell", "move-across-cells",
		"grow-range", "shrink-range", "zero-range", "toggle-listening", "transmit"}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := &cacheModel{t: t, rng: rand.New(rand.NewSource(seed)), k: sim.NewKernel(seed),
				cell: 8, side: 60, next: 1}
			c.m = New(c.k, Config{BitRate: 250_000, CellSize: c.cell})
			for i := 0; i < 12; i++ {
				c.attach()
			}
			for step := 0; step < 300; step++ {
				op := ops[c.rng.Intn(len(ops))]
				s := c.pick()
				if s == nil {
					op = "attach"
				}
				what := fmt.Sprintf("step %d %s", step, op)
				switch op {
				case "attach":
					c.attach()
				case "detach":
					c.m.Detach(s.id)
				case "move-in-cell":
					c.moveWithinCell(s)
				case "move-across-cells":
					c.moveAcrossCells(s)
				case "grow-range":
					s.SetRange(s.Range() + c.rng.Float64()*c.cell)
				case "shrink-range":
					s.SetRange(s.Range() * c.rng.Float64())
				case "zero-range":
					s.SetRange(0)
				case "toggle-listening":
					s.SetListening(!s.Listening())
				case "transmit":
					// A range change first makes the sender's key miss, so
					// the three sends run the miss, fill and hit paths.
					if c.rng.Intn(2) == 0 {
						s.SetRange(s.Range() + 1)
					}
					for i := 0; i < 3; i++ {
						c.transmit(s, what)
					}
				}
				c.check(what)
			}
		})
	}
}
