// Package query models the query classes of the declustering study —
// range, partial match, and point queries over a Cartesian product
// file — and generates the workloads the paper's experiments sweep:
// query-size sweeps, query-shape (aspect ratio) sweeps, and
// partial-match patterns.
//
// A query is represented by the set of grid buckets it touches, which
// for all three classes is an axis-aligned rectangle (grid.Rect): a
// range query spans an interval per attribute; a partial match query
// fixes some attributes to a single partition and leaves the rest
// unrestricted; a point query fixes all of them.
package query

import (
	"fmt"
	"math/bits"
	"math/rand"

	"decluster/internal/grid"
)

// Kind classifies a query by the shape of its bucket set.
type Kind int

const (
	// Range is the general class: an interval on every attribute.
	Range Kind = iota
	// PartialMatch fixes each attribute to a single partition or
	// leaves it completely unspecified.
	PartialMatch
	// Point fixes every attribute to a single partition.
	Point
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Range:
		return "range"
	case PartialMatch:
		return "partial-match"
	case Point:
		return "point"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Classify returns the most specific kind describing r on grid g: Point
// if every axis is a single partition, PartialMatch if every axis is
// either a single partition or the full domain, and Range otherwise.
func Classify(g *grid.Grid, r grid.Rect) Kind {
	point := true
	pm := true
	for i := range r.Lo {
		single := r.Lo[i] == r.Hi[i]
		full := r.Lo[i] == 0 && r.Hi[i] == g.Dim(i)-1
		if !single {
			point = false
		}
		if !single && !full {
			pm = false
		}
	}
	switch {
	case point:
		return Point
	case pm:
		return PartialMatch
	default:
		return Range
	}
}

// Workload is a named set of queries evaluated together; all experiment
// rows in the harness aggregate over one workload.
type Workload struct {
	Name    string
	Queries []grid.Rect
}

// Placements enumerates every position of a rectangle with the given
// side lengths on g. When the number of placements exceeds limit
// (limit > 0), a deterministic uniform sample of exactly limit
// placements is drawn using seed; limit ≤ 0 disables sampling.
func Placements(g *grid.Grid, sides []int, limit int, seed int64) ([]grid.Rect, error) {
	total, err := g.PlacementCount(sides)
	if err != nil {
		return nil, err
	}
	if limit > 0 && total > limit {
		return sampledPlacements(g, sides, total, limit, seed)
	}
	out := make([]grid.Rect, 0, total)
	_, err = g.Placements(sides, func(r grid.Rect) bool {
		out = append(out, grid.Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sampledPlacements draws `limit` distinct placements uniformly without
// replacement by sampling placement indexes and decoding them in
// ascending index order, which is low-corner row-major order. Draws are
// deduplicated in a bitset over the placement indexes — at most one bit
// per bucket — whose set bits, read in order, are the sample sorted.
func sampledPlacements(g *grid.Grid, sides []int, total, limit int, seed int64) ([]grid.Rect, error) {
	rng := rand.New(rand.NewSource(seed))
	picked := make([]uint64, (total+63)/64)
	for n := 0; n < limit; {
		idx := rng.Intn(total)
		if bit := uint64(1) << uint(idx&63); picked[idx>>6]&bit == 0 {
			picked[idx>>6] |= bit
			n++
		}
	}
	// Decode placement index → low corner using mixed-radix digits of
	// per-axis free positions (d_i − side_i + 1), row-major. Every
	// corner lives in one slab, capped so an append cannot reach its
	// neighbour.
	k := g.K()
	radix := make([]int, k)
	for i := range radix {
		radix[i] = g.Dim(i) - sides[i] + 1
	}
	slab := make([]int, 2*k*limit)
	out := make([]grid.Rect, 0, limit)
	for word, set := range picked {
		for ; set != 0; set &= set - 1 {
			idx := word<<6 | bits.TrailingZeros64(set)
			corners := slab[2*k*len(out):]
			lo := grid.Coord(corners[:k:k])
			hi := grid.Coord(corners[k : 2*k : 2*k])
			for i := k - 1; i >= 0; i-- {
				lo[i] = idx % radix[i]
				hi[i] = lo[i] + sides[i] - 1
				idx /= radix[i]
			}
			out = append(out, grid.Rect{Lo: lo, Hi: hi})
		}
	}
	return out, nil
}

// SquarishSides factors area into g.K() side lengths as close to equal
// as possible, each fitting its axis. It prefers the factorization that
// minimizes the max/min side ratio, breaking ties toward earlier axes
// being at least as long. An error is returned when no factorization
// fits the grid.
func SquarishSides(g *grid.Grid, area int) ([]int, error) {
	if area < 1 {
		return nil, fmt.Errorf("query: area must be ≥ 1, got %d", area)
	}
	shapes, err := ShapesOfArea(g, area)
	if err != nil {
		return nil, err
	}
	best := -1
	bestRatio := 0.0
	for i, s := range shapes {
		min, max := s[0], s[0]
		for _, v := range s[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		ratio := float64(max) / float64(min)
		if best < 0 || ratio < bestRatio {
			best, bestRatio = i, ratio
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("query: no shape of area %d fits grid %v", area, g)
	}
	return shapes[best], nil
}

// ShapesOfArea enumerates every side-length vector whose product is
// area and which fits inside g, in lexicographic order. An error is
// returned when none fits.
func ShapesOfArea(g *grid.Grid, area int) ([][]int, error) {
	if area < 1 {
		return nil, fmt.Errorf("query: area must be ≥ 1, got %d", area)
	}
	var out [][]int
	sides := make([]int, g.K())
	var rec func(axis, rem int)
	rec = func(axis, rem int) {
		if axis == g.K()-1 {
			if rem <= g.Dim(axis) {
				sides[axis] = rem
				cp := make([]int, len(sides))
				copy(cp, sides)
				out = append(out, cp)
			}
			return
		}
		for s := 1; s <= g.Dim(axis) && s <= rem; s++ {
			if rem%s != 0 {
				continue
			}
			sides[axis] = s
			rec(axis+1, rem/s)
		}
	}
	rec(0, area)
	if len(out) == 0 {
		return nil, fmt.Errorf("query: no shape of area %d fits grid %v", area, g)
	}
	return out, nil
}

// Spec is a workload before its queries are drawn: every placement of
// one rectangle, sampled down to the limit with the seed plus Offset.
// The sweeps list their workloads as specs so a caller can draw them
// concurrently.
type Spec struct {
	Name   string
	Sides  []int
	Offset int64
}

// Build draws the workload on g (see Placements).
func (s Spec) Build(g *grid.Grid, limit int, seed int64) (Workload, error) {
	qs, err := Placements(g, s.Sides, limit, seed+s.Offset)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Name: s.Name, Queries: qs}, nil
}

// buildAll draws every spec in order.
func buildAll(g *grid.Grid, specs []Spec, limit int, seed int64) ([]Workload, error) {
	out := make([]Workload, len(specs))
	for i, s := range specs {
		w, err := s.Build(g, limit, seed)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// SizeSweep builds one workload per area: all placements (sampled down
// to limit) of the most-square shape of that area. Areas that admit no
// fitting shape are skipped with an error only if *no* area fits.
func SizeSweep(g *grid.Grid, areas []int, limit int, seed int64) ([]Workload, error) {
	specs, err := SizeSpecs(g, areas)
	if err != nil {
		return nil, err
	}
	return buildAll(g, specs, limit, seed)
}

// SizeSpecs lists SizeSweep's workloads, undrawn.
func SizeSpecs(g *grid.Grid, areas []int) ([]Spec, error) {
	var out []Spec
	for _, a := range areas {
		sides, err := SquarishSides(g, a)
		if err != nil {
			continue
		}
		out = append(out, Spec{Name: fmt.Sprintf("area=%d", a), Sides: sides, Offset: int64(a)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query: no area in %v fits grid %v", areas, g)
	}
	return out, nil
}

// ShapeSweep builds one workload per shape of the given fixed area on a
// 2-attribute grid, ordered from most square to most elongated — the
// paper's Experiment 2 ("vary the full range from a square to a line").
// Shapes are deduplicated by aspect ratio (s0 ≥ s1 orientation kept
// separate from s0 < s1, since grids and methods are not symmetric).
func ShapeSweep(g *grid.Grid, area, limit int, seed int64) ([]Workload, error) {
	specs, err := ShapeSpecs(g, area)
	if err != nil {
		return nil, err
	}
	return buildAll(g, specs, limit, seed)
}

// ShapeSpecs lists ShapeSweep's workloads, undrawn.
func ShapeSpecs(g *grid.Grid, area int) ([]Spec, error) {
	if g.K() != 2 {
		return nil, fmt.Errorf("query: ShapeSweep requires a 2-attribute grid, got %d", g.K())
	}
	shapes, err := ShapesOfArea(g, area)
	if err != nil {
		return nil, err
	}
	// Order by elongation |log(s0/s1)| ascending: square first, line last.
	for i := 1; i < len(shapes); i++ {
		for j := i; j > 0 && elongation(shapes[j]) < elongation(shapes[j-1]); j-- {
			shapes[j], shapes[j-1] = shapes[j-1], shapes[j]
		}
	}
	out := make([]Spec, len(shapes))
	for i, s := range shapes {
		out[i] = Spec{Name: fmt.Sprintf("%d×%d", s[0], s[1]), Sides: s, Offset: int64(s[0])}
	}
	return out, nil
}

// elongation measures how far a shape is from square as max/min side.
func elongation(s []int) float64 {
	a, b := float64(s[0]), float64(s[1])
	if a < b {
		a, b = b, a
	}
	return a / b
}

// RandomRange generates n range queries whose side on each axis is
// drawn uniformly from [minSide, maxSide] (clamped to the axis) and
// whose placement is uniform — the mixed query population used for the
// paper's "small queries" / "large queries" disk sweeps, where a query
// class is a band of sizes and shapes rather than a single rectangle.
//
// When the grid is narrower than the requested band, the per-axis
// clamping changes what is actually generated; the workload's name
// reports the effective band (the realizable side range across axes),
// not the requested one, so a workload labelled random[16..48] always
// contains sides in [16, 48]. A band that starts above every axis
// (minSide > max dimension) degenerates entirely and is rejected.
func RandomRange(g *grid.Grid, minSide, maxSide, n int, seed int64) (Workload, error) {
	if minSide < 1 || maxSide < minSide {
		return Workload{}, fmt.Errorf("query: invalid side range [%d,%d]", minSide, maxSide)
	}
	if n < 1 {
		return Workload{}, fmt.Errorf("query: need n ≥ 1 queries, got %d", n)
	}
	// Effective band: on axis i sides are drawn from
	// [min(minSide, capI), capI] with capI = min(maxSide, d_i); the
	// workload as a whole realizes [min_i, max_i] of those.
	effMin, effMax := 0, 0
	for i := 0; i < g.K(); i++ {
		capI := maxSide
		if capI > g.Dim(i) {
			capI = g.Dim(i)
		}
		lowI := minSide
		if lowI > capI {
			lowI = capI
		}
		if i == 0 || lowI < effMin {
			effMin = lowI
		}
		if i == 0 || capI > effMax {
			effMax = capI
		}
	}
	if effMax < minSide {
		return Workload{}, fmt.Errorf(
			"query: side band [%d,%d] lies entirely above grid %v (largest possible side %d)",
			minSide, maxSide, g, effMax)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]grid.Rect, 0, n)
	for len(qs) < n {
		lo := make(grid.Coord, g.K())
		hi := make(grid.Coord, g.K())
		for i := 0; i < g.K(); i++ {
			max := maxSide
			if max > g.Dim(i) {
				max = g.Dim(i)
			}
			min := minSide
			if min > max {
				min = max
			}
			side := min + rng.Intn(max-min+1)
			lo[i] = rng.Intn(g.Dim(i) - side + 1)
			hi[i] = lo[i] + side - 1
		}
		qs = append(qs, grid.Rect{Lo: lo, Hi: hi})
	}
	return Workload{
		Name:    fmt.Sprintf("random[%d..%d]", effMin, effMax),
		Queries: qs,
	}, nil
}

// HotRegion generates n range queries whose placements concentrate in
// a hot sub-rectangle of the grid: with probability heat a query lands
// (uniformly) inside the hot region, otherwise anywhere. Sides are
// drawn uniformly from [minSide, maxSide] clamped to fit. Models the
// skewed query loci of interactive workloads, where declustering
// quality over the hot region dominates.
func HotRegion(g *grid.Grid, hot grid.Rect, heat float64, minSide, maxSide, n int, seed int64) (Workload, error) {
	if err := g.CheckRect(hot); err != nil {
		return Workload{}, fmt.Errorf("query: hot region: %w", err)
	}
	if heat < 0 || heat > 1 {
		return Workload{}, fmt.Errorf("query: heat %v outside [0,1]", heat)
	}
	if minSide < 1 || maxSide < minSide {
		return Workload{}, fmt.Errorf("query: invalid side range [%d,%d]", minSide, maxSide)
	}
	if n < 1 {
		return Workload{}, fmt.Errorf("query: need n ≥ 1 queries, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	qs := make([]grid.Rect, 0, n)
	for len(qs) < n {
		inHot := rng.Float64() < heat
		lo := make(grid.Coord, g.K())
		hi := make(grid.Coord, g.K())
		for i := 0; i < g.K(); i++ {
			regionLo, regionHi := 0, g.Dim(i)-1
			if inHot {
				regionLo, regionHi = hot.Lo[i], hot.Hi[i]
			}
			span := regionHi - regionLo + 1
			max := maxSide
			if max > span {
				max = span
			}
			min := minSide
			if min > max {
				min = max
			}
			side := min + rng.Intn(max-min+1)
			lo[i] = regionLo + rng.Intn(span-side+1)
			hi[i] = lo[i] + side - 1
		}
		qs = append(qs, grid.Rect{Lo: lo, Hi: hi})
	}
	return Workload{
		Name:    fmt.Sprintf("hot[%.0f%%]", heat*100),
		Queries: qs,
	}, nil
}

// PartialMatchWorkload enumerates partial match queries with the given
// unspecified-attribute pattern: specified attributes take every single
// partition value, unspecified attributes span their full domain. The
// result is sampled down to limit placements when needed.
func PartialMatchWorkload(g *grid.Grid, unspecified []bool, limit int, seed int64) (Workload, error) {
	spec, err := PartialMatchSpec(g, unspecified)
	if err != nil {
		return Workload{}, err
	}
	return spec.Build(g, limit, seed)
}

// PartialMatchSpec is PartialMatchWorkload's workload, undrawn.
func PartialMatchSpec(g *grid.Grid, unspecified []bool) (Spec, error) {
	if len(unspecified) != g.K() {
		return Spec{}, fmt.Errorf("query: pattern arity %d for %d-attribute grid", len(unspecified), g.K())
	}
	sides := make([]int, g.K())
	name := "PM["
	for i, u := range unspecified {
		if u {
			sides[i] = g.Dim(i)
			name += "*"
		} else {
			sides[i] = 1
			name += "s"
		}
	}
	return Spec{Name: name + "]", Sides: sides}, nil
}

// PointWorkload enumerates point queries (all attributes specified),
// sampled down to limit.
func PointWorkload(g *grid.Grid, limit int, seed int64) (Workload, error) {
	unspec := make([]bool, g.K())
	w, err := PartialMatchWorkload(g, unspec, limit, seed)
	if err != nil {
		return Workload{}, err
	}
	w.Name = "point"
	return w, nil
}
