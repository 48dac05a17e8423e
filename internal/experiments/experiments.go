// Package experiments reproduces the evaluation section of Himatsingka
// & Srivastava (ICDE 1994). Each experiment function regenerates one of
// the paper's tables or figures: a sweep over a single parameter (query
// size, query shape, attribute count, disk count, database size) that
// compares the grid-based declustering methods DM/CMD, FX, ECC and
// HCAM against each other and against the optimal lower bound.
//
// The response-time metric is the paper's: bucket accesses on the
// busiest disk, averaged over every placement of the query class
// (exhaustive up to a sampling limit). Where the source text does not
// record the paper's exact constants, defaults are chosen to land in
// the same qualitative regimes; every default is overridable through
// Options.
package experiments

import (
	"fmt"
	"math"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/grid"
	"decluster/internal/plot"
	"decluster/internal/table"
)

// Options tunes an experiment run. The zero value selects the defaults
// documented on each experiment function.
type Options struct {
	// Seed drives all deterministic sampling (default 1).
	Seed int64
	// SampleLimit caps the number of query placements evaluated per
	// workload (default 2000; ≤ 0 keeps the default — use Exhaustive to
	// disable sampling).
	SampleLimit int
	// Exhaustive disables placement sampling entirely.
	Exhaustive bool
	// IncludeRandom adds the balanced-random baseline allocation to the
	// method set.
	IncludeRandom bool
	// Parallel bounds the sweep engine's worker pool (default: every
	// available CPU; 1 serializes). Results are byte-identical at any
	// setting.
	Parallel int
	// Kernel selects the response-time kernel per method (default
	// cost.KernelAuto: prefix tables when they fit TableBudget and
	// cost.AutoKernel finds them cheaper than walking all of the
	// method's queries, table walk otherwise).
	Kernel cost.Kernel
	// TableBudget caps one evaluator's prefix-table memory under the
	// auto kernel (≤ 0 selects cost.DefaultTableBudget).
	TableBudget int64
}

// seed returns the sampling seed.
func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// limit returns the placement sampling limit (0 = exhaustive).
func (o Options) limit() int {
	if o.Exhaustive {
		return 0
	}
	if o.SampleLimit <= 0 {
		return 2000
	}
	return o.SampleLimit
}

// methods builds the paper's method set over g/m, optionally with the
// random baseline appended.
func (o Options) methods(g *grid.Grid, m int) ([]alloc.Method, error) {
	sets, err := o.methodSets(g, []int{m})
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// methodSets is methods for each disk count of a disk sweep over one
// grid; the sets share whatever depends on the grid only (see
// alloc.PaperSets), and the random baseline shuffles its permutation
// once per grid.
func (o Options) methodSets(g *grid.Grid, disks []int) ([][]alloc.Method, error) {
	sets := alloc.PaperSets(g, disks)
	var random *alloc.RankDeal
	for i, m := range disks {
		if len(sets[i]) == 0 {
			return nil, fmt.Errorf("experiments: no method applies to grid %v with %d disks", g, m)
		}
		if o.IncludeRandom {
			var err error
			if random == nil {
				random, err = alloc.NewRandom(g, m, o.seed())
			} else {
				random, err = random.WithDisks(m)
			}
			if err != nil {
				return nil, err
			}
			sets[i] = append(sets[i], random)
		}
	}
	return sets, nil
}

// Row is one x-axis point of an experiment: a label (the swept
// parameter's value) and one cost.Result per method.
type Row struct {
	Label   string
	Results []cost.Result
}

// Experiment is a regenerated table/figure: metadata plus the rows of
// the sweep.
type Experiment struct {
	// ID matches the experiment index in DESIGN.md (e.g. "E3").
	ID string
	// Title is the paper artifact being reproduced.
	Title string
	// XLabel names the swept parameter.
	XLabel string
	// Methods names the compared methods, in column order.
	Methods []string
	// Rows holds the sweep, in x order.
	Rows []Row
	// Warnings records ways the run deviated from what was asked —
	// e.g. an -exhaustive request the experiment cannot honour — so
	// surprising data always arrives with its caveat attached.
	Warnings []string
}

// Metric selects which aggregate a rendering reports.
type Metric int

const (
	// MeanRT is the mean response time in bucket accesses.
	MeanRT Metric = iota
	// Ratio is mean RT divided by mean optimal RT (≥ 1).
	Ratio
	// FracOptimal is the fraction of queries answered at the optimum.
	FracOptimal
	// WorstRT is the worst response time observed.
	WorstRT
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MeanRT:
		return "mean RT (buckets)"
	case Ratio:
		return "RT / optimal"
	case FracOptimal:
		return "fraction optimal"
	case WorstRT:
		return "worst RT (buckets)"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// renderValue formats a metric value for the table and CSV renderers.
// Non-finite floats — stats.Ratio returns +Inf against a zero optimum —
// render as the stable lowercase tokens "inf", "-inf", and "nan"
// instead of Go's locale-looking "+Inf"/"NaN", so downstream parsers
// and the golden files see one representation forever. Finite values
// pass through for the renderer's own numeric formatting.
func renderValue(v interface{}) interface{} {
	f, ok := v.(float64)
	if !ok {
		return v
	}
	switch {
	case math.IsInf(f, 1):
		return "inf"
	case math.IsInf(f, -1):
		return "-inf"
	case math.IsNaN(f):
		return "nan"
	default:
		return v
	}
}

// value extracts the metric from a result.
func (m Metric) value(r cost.Result) interface{} {
	switch m {
	case MeanRT:
		return r.MeanRT
	case Ratio:
		return r.Ratio
	case FracOptimal:
		return r.FracOptimal
	case WorstRT:
		return r.WorstRT
	default:
		return ""
	}
}

// Table renders the experiment as a text table of the chosen metric,
// one row per sweep point, one column per method, plus the mean optimal
// RT column when the metric is MeanRT.
func (e *Experiment) Table(metric Metric) *table.Table {
	headers := append([]string{e.XLabel}, e.Methods...)
	if metric == MeanRT {
		headers = append(headers, "optimal")
	}
	t := table.New(fmt.Sprintf("%s — %s [%s]", e.ID, e.Title, metric), headers...)
	for _, row := range e.Rows {
		cells := make([]interface{}, 0, len(headers))
		cells = append(cells, row.Label)
		for _, r := range row.Results {
			cells = append(cells, renderValue(metric.value(r)))
		}
		if metric == MeanRT && len(row.Results) > 0 {
			cells = append(cells, renderValue(row.Results[0].MeanOpt))
		}
		t.AddRowf(cells...)
	}
	return t
}

// Chart renders the experiment as an ASCII line chart of the chosen
// metric — the terminal rendition of the paper's figure. Gap rows
// (methods inapplicable at a sweep point, zero queries) break the
// series; they are drawn at the metric's zero, and non-finite values
// (a Ratio against a zero optimum is +Inf) are drawn the same way —
// plot.Series rejects them outright, and a single +Inf would flatten
// every finite line to nothing anyway.
func (e *Experiment) Chart(metric Metric) *plot.Chart {
	labels := make([]string, len(e.Rows))
	for i, row := range e.Rows {
		labels[i] = row.Label
	}
	c := plot.New(fmt.Sprintf("%s — %s [%s]", e.ID, e.Title, metric), e.XLabel, labels)
	for col, name := range e.Methods {
		ys := make([]float64, len(e.Rows))
		for i, row := range e.Rows {
			switch v := metric.value(row.Results[col]).(type) {
			case float64:
				if !math.IsInf(v, 0) && !math.IsNaN(v) {
					ys[i] = v
				}
			case int:
				ys[i] = float64(v)
			}
		}
		// Adding cannot fail: lengths match and values are finite.
		if err := c.Add(plot.Series{Name: name, Y: ys}); err != nil {
			panic(err)
		}
	}
	return c
}

// lineName returns the plot-line label for a method. The paper draws
// FX and ExFX as a single curve chosen by its selection rule, so both
// label the same line.
func lineName(m alloc.Method) string {
	if m.Name() == "ExFX" {
		return "FX"
	}
	return m.Name()
}

// methodNames extracts the column labels.
func methodNames(methods []alloc.Method) []string {
	out := make([]string, len(methods))
	for i, m := range methods {
		out[i] = lineName(m)
	}
	return out
}

// Best returns, per row, the name of the method with the smallest value
// of the metric (MeanRT or Ratio); ties go to the earliest column.
func (e *Experiment) Best(metric Metric) []string {
	out := make([]string, len(e.Rows))
	for i, row := range e.Rows {
		bestIdx := 0
		for j := 1; j < len(row.Results); j++ {
			var a, b float64
			switch metric {
			case Ratio:
				a, b = row.Results[j].Ratio, row.Results[bestIdx].Ratio
			case WorstRT:
				a, b = float64(row.Results[j].WorstRT), float64(row.Results[bestIdx].WorstRT)
			case FracOptimal: // larger is better
				a, b = -row.Results[j].FracOptimal, -row.Results[bestIdx].FracOptimal
			default:
				a, b = row.Results[j].MeanRT, row.Results[bestIdx].MeanRT
			}
			if a < b {
				bestIdx = j
			}
		}
		out[i] = e.Methods[bestIdx]
	}
	return out
}
