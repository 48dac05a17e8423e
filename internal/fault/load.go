package fault

import (
	"fmt"
	"time"
)

// LoadSpikeSchedule scripts a flash crowd: for the middle half of the
// run the offered load multiplies by Factor and concentrates on one
// seed-chosen hot region of the grid. Like the node schedules, every
// number here is a pure function of (Seed, Axes, Duration, Factor), so
// a chaos run is replayed exactly by re-deriving the schedule from the
// seed it printed. The schedule is descriptive, not active: load
// drivers (EN cells, the soak driver) read it to shape their own
// traffic, since the injector has no concept of client arrival rates.
type LoadSpikeSchedule struct {
	// Seed derived the schedule; quoted in String for replay.
	Seed int64
	// Name identifies the builder ("load-spike").
	Name string
	// Start and End bound the surge window relative to schedule start.
	Start, End time.Duration
	// Factor is the arrival-rate multiplier during the window (≥ 1).
	Factor float64
	// Center holds the hot region's center per axis as a fraction of
	// the grid side, Span its width per axis as a fraction — resolved
	// into cell coordinates by Region once the grid's dims are known.
	Center, Span []float64
}

// NewLoadSpikeSchedule derives a flash crowd over a k-axis grid: the
// surge occupies the middle half of the run at factor × the base
// arrival rate, aimed at a seed-chosen region covering about a quarter
// of each axis.
func NewLoadSpikeSchedule(seed int64, axes int, duration time.Duration, factor float64) LoadSpikeSchedule {
	if factor < 1 {
		factor = 1
	}
	s := LoadSpikeSchedule{
		Seed:   seed,
		Name:   "load-spike",
		Start:  duration / 4,
		End:    3 * duration / 4,
		Factor: factor,
		Center: make([]float64, axes),
		Span:   make([]float64, axes),
	}
	for a := 0; a < axes; a++ {
		// Center in [¼, ¾] of the axis so the quarter-wide region never
		// clips more than half away at the grid edge.
		u := float64(splitmix64(uint64(seed)^0xc2b2ae3d*uint64(a+1))%1_000_000) / 1_000_000
		s.Center[a] = 0.25 + 0.5*u
		s.Span[a] = 0.25
	}
	return s
}

// Active reports whether t (relative to schedule start) falls inside
// the surge window.
func (s LoadSpikeSchedule) Active(t time.Duration) bool {
	return t >= s.Start && t < s.End
}

// Region resolves the hot region into inclusive cell bounds for a grid
// with the given per-axis dimensions. Bounds are clamped into the grid
// and never empty: every axis spans at least one cell.
func (s LoadSpikeSchedule) Region(dims []int) (lo, hi []int) {
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	for a, d := range dims {
		c, sp := 0.5, 0.25
		if a < len(s.Center) {
			c, sp = s.Center[a], s.Span[a]
		}
		l := int((c - sp/2) * float64(d))
		h := int((c + sp/2) * float64(d))
		if l < 0 {
			l = 0
		}
		if h > d-1 {
			h = d - 1
		}
		if h < l {
			h = l
		}
		lo[a], hi[a] = l, h
	}
	return lo, hi
}

// String describes the schedule with its replay seed.
func (s LoadSpikeSchedule) String() string {
	return fmt.Sprintf("%s ×%.1f over [%v, %v) (replay with -seed %d)",
		s.Name, s.Factor, s.Start, s.End, s.Seed)
}
