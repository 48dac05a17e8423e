package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"decluster/internal/alloc"
	"decluster/internal/cost"
	"decluster/internal/datagen"
	"decluster/internal/exec"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/query"
	"decluster/internal/replica"
	"decluster/internal/stats"
	"decluster/internal/table"
)

// AvailabilityConfig parameterizes Experiment A: degraded response time
// versus the number of simultaneously failed disks, comparing no
// replication, chained replication, and offset replication across the
// paper's allocation methods — the availability study the paper's
// replication extension calls for.
type AvailabilityConfig struct {
	// GridSide is the partitions per attribute of the 2-D grid
	// (default 32).
	GridSide int
	// Disks is M (default 8).
	Disks int
	// QuerySides is the query shape studied (default 4×4).
	QuerySides []int
	// MaxFailed is the largest number of simultaneously failed disks
	// swept (default 2; clamped to Disks-1). Zero selects the default;
	// pass a negative value for an explicit 0, i.e. no failure sweep.
	MaxFailed int
	// Offset is the backup offset of the offset-replication variant
	// (default Disks/2).
	Offset int
	// FailTrials is the number of failed-disk sets sampled per failure
	// count (default 3).
	FailTrials int
	// TransientProb is the per-read transient error probability of the
	// end-to-end fault drill (default 0.3). Zero selects the default;
	// pass a negative value for an explicit 0, i.e. no transient errors.
	TransientProb float64
}

func (c AvailabilityConfig) withDefaults() AvailabilityConfig {
	if c.GridSide == 0 {
		c.GridSide = 32
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	if len(c.QuerySides) == 0 {
		c.QuerySides = []int{4, 4}
	}
	switch {
	case c.MaxFailed < 0: // explicitly no failure sweep
		c.MaxFailed = 0
	case c.MaxFailed == 0:
		c.MaxFailed = 2
	}
	if c.MaxFailed > c.Disks-1 {
		c.MaxFailed = c.Disks - 1
	}
	if c.Offset == 0 {
		c.Offset = c.Disks / 2
	}
	if c.FailTrials == 0 {
		c.FailTrials = 3
	}
	switch {
	case c.TransientProb < 0: // explicitly fault-free reads
		c.TransientProb = 0
	case c.TransientProb == 0:
		c.TransientProb = 0.3
	}
	return c
}

// AvailabilityCell aggregates one (scheme, failure count) point.
type AvailabilityCell struct {
	// Ratio is mean degraded RT ÷ mean fault-free optimal RT over the
	// trials that stayed answerable (0 when none did).
	Ratio float64
	// Unavailable is the fraction of (failure set, query) trials the
	// scheme could not answer correctly.
	Unavailable float64
}

// AvailabilityRow is one method × replication-scheme series.
type AvailabilityRow struct {
	Method string
	Scheme string // "none", "chain", or "offset+k"
	Cells  []AvailabilityCell
}

// AvailabilityDrill is the end-to-end fault-injection run: a live
// executor over a populated grid file with one fail-stop disk and
// transient read errors, exercising retry and replica failover.
type AvailabilityDrill struct {
	Method        string
	FailedDisk    int
	TransientProb float64
	Records       int  // records returned by the degraded run
	Verified      bool // degraded records matched the fault-free run exactly
	Retries       int  // transient errors retried to success
	Rerouted      int  // buckets served from their backup replica
	HealthyLoad   int  // busiest-disk buckets, fault-free
	DegradedLoad  int  // busiest-disk buckets with the disk failed
	// UnreplicatedErr is the typed error the same degraded query
	// returns without replication (ErrUnavailable's message).
	UnreplicatedErr string
}

// AvailabilityResult is the regenerated availability table plus the
// fault drill.
type AvailabilityResult struct {
	Workload     string
	Disks        int
	Offset       int
	FailedCounts []int
	Rows         []AvailabilityRow
	Drill        AvailabilityDrill
}

// Availability runs Experiment A. For every paper method it evaluates
// three schemes — single copy, chained replication, offset replication
// — under 0..MaxFailed simultaneous fail-stop disks (failure sets
// sampled deterministically from the seed), reporting the mean degraded
// RT ratio and the fraction of unavailable trials. It then runs the
// end-to-end drill on a populated grid file.
func Availability(cfg AvailabilityConfig, opt Options) (*AvailabilityResult, error) {
	cfg = cfg.withDefaults()
	g, err := grid.New(cfg.GridSide, cfg.GridSide)
	if err != nil {
		return nil, err
	}
	methods, err := opt.methods(g, cfg.Disks)
	if err != nil {
		return nil, err
	}
	limit := opt.limit()
	if limit == 0 || limit > 200 {
		limit = 200 // the exact scheduler runs per query per failure set
	}
	qs, err := query.Placements(g, cfg.QuerySides, limit, opt.seed())
	if err != nil {
		return nil, err
	}

	// Deterministic failure sets per failure count.
	failSets := make([][][]int, cfg.MaxFailed+1)
	failSets[0] = [][]int{nil}
	rng := rand.New(rand.NewSource(opt.seed()*31 + 7))
	for f := 1; f <= cfg.MaxFailed; f++ {
		for trial := 0; trial < cfg.FailTrials; trial++ {
			perm := rng.Perm(cfg.Disks)
			failSets[f] = append(failSets[f], perm[:f])
		}
	}

	res := &AvailabilityResult{
		Workload: fmt.Sprintf("%d×%d", cfg.QuerySides[0], cfg.QuerySides[1]),
		Disks:    cfg.Disks,
		Offset:   cfg.Offset,
	}
	for f := 0; f <= cfg.MaxFailed; f++ {
		res.FailedCounts = append(res.FailedCounts, f)
	}

	for _, m := range methods {
		schemes, err := replicaSchemes(m, cfg.Offset)
		if err != nil {
			return nil, err
		}
		for _, s := range append([]replicaScheme{{"none", nil}}, schemes...) {
			rt := func(q grid.Rect, failed []int) (int, error) {
				return cost.DegradedResponseTime(m, q, failed)
			}
			if s.rep != nil {
				rt = s.rep.ResponseTimeDegradedSet
			}
			row := AvailabilityRow{Method: lineName(m), Scheme: s.name}
			for f := 0; f <= cfg.MaxFailed; f++ {
				cell, err := availabilityCell(rt, qs, failSets[f], cfg.Disks)
				if err != nil {
					return nil, err
				}
				row.Cells = append(row.Cells, cell)
			}
			res.Rows = append(res.Rows, row)
		}
	}

	drill, err := runDrill(cfg, opt.seed())
	if err != nil {
		return nil, err
	}
	res.Drill = *drill
	return res, nil
}

// availabilityCell aggregates one scheme over all (failure set, query)
// trials of one failure count.
func availabilityCell(rt func(grid.Rect, []int) (int, error), qs []grid.Rect, sets [][]int, disks int) (AvailabilityCell, error) {
	var rts, opts []float64
	unavailable, trials := 0, 0
	for _, failed := range sets {
		for _, q := range qs {
			trials++
			v, err := rt(q, failed)
			if err != nil {
				if errors.Is(err, fault.ErrUnavailable) {
					unavailable++
					continue
				}
				return AvailabilityCell{}, err
			}
			rts = append(rts, float64(v))
			opts = append(opts, float64(cost.OptimalRT(q.Volume(), disks)))
		}
	}
	cell := AvailabilityCell{Unavailable: float64(unavailable) / float64(trials)}
	if len(rts) > 0 {
		cell.Ratio = stats.Ratio(stats.Mean(rts), stats.Mean(opts))
	}
	return cell, nil
}

// runDrill executes the end-to-end fault-injection scenario: HCAM with
// chained replication over a populated grid file, one fail-stop disk,
// transient read errors retried with backoff; then the same failure
// without replication, which must return the typed unavailability.
func runDrill(cfg AvailabilityConfig, seed int64) (*AvailabilityDrill, error) {
	g, err := grid.New(16, 16)
	if err != nil {
		return nil, err
	}
	m, err := alloc.NewHCAM(g, cfg.Disks)
	if err != nil {
		return nil, err
	}
	f, err := populated(m, 0, datagen.Uniform{K: 2, Seed: seed}.Generate(4096))
	if err != nil {
		return nil, err
	}
	q := g.MustRect(grid.Coord{2, 2}, grid.Coord{9, 9})
	ctx := context.Background()

	healthyExec, err := exec.New(f)
	if err != nil {
		return nil, err
	}
	healthy, err := healthyExec.RangeSearch(ctx, q)
	if err != nil {
		return nil, err
	}

	const failedDisk = 1
	drill := &AvailabilityDrill{
		Method:        m.Name() + "+chain",
		FailedDisk:    failedDisk,
		TransientProb: cfg.TransientProb,
		HealthyLoad:   maxInt(healthy.BucketsPerDisk),
	}

	rep, err := replica.NewChained(m)
	if err != nil {
		return nil, err
	}
	inj, err := fault.New(fault.Config{Seed: seed, FailDisks: []int{failedDisk}, TransientProb: cfg.TransientProb})
	if err != nil {
		return nil, err
	}
	degradedExec, err := exec.New(f,
		exec.WithFaults(inj),
		exec.WithFailover(rep),
		exec.WithRetry(exec.RetryPolicy{MaxAttempts: 12}))
	if err != nil {
		return nil, err
	}
	degraded, err := degradedExec.RangeSearch(ctx, q)
	if err != nil {
		return nil, err
	}
	drill.Records = len(degraded.Records)
	drill.Retries = degraded.Retries
	drill.Rerouted = degraded.Rerouted
	drill.DegradedLoad = maxInt(degraded.BucketsPerDisk)
	drill.Verified = len(degraded.Records) == len(healthy.Records)
	if drill.Verified {
		for i := range degraded.Records {
			if degraded.Records[i].ID != healthy.Records[i].ID {
				drill.Verified = false
				break
			}
		}
	}

	// The same failure without replication: typed unavailability.
	unrepInj, err := fault.New(fault.Config{Seed: seed, FailDisks: []int{failedDisk}})
	if err != nil {
		return nil, err
	}
	unrepExec, err := exec.New(f, exec.WithFaults(unrepInj))
	if err != nil {
		return nil, err
	}
	if _, err := unrepExec.RangeSearch(ctx, q); err != nil {
		drill.UnreplicatedErr = err.Error()
	}
	return drill, nil
}

func maxInt(xs []int) int {
	max := 0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Table renders the availability sweep: one row per method × scheme,
// one column per failure count.
func (r *AvailabilityResult) Table() *table.Table {
	headers := []string{"method", "scheme"}
	for _, f := range r.FailedCounts {
		headers = append(headers, fmt.Sprintf("%d failed", f))
	}
	t := table.New(
		fmt.Sprintf("EA — degraded RT vs failed disks, %s queries, M=%d [RT / optimal]", r.Workload, r.Disks),
		headers...)
	for _, row := range r.Rows {
		cells := []interface{}{row.Method, row.Scheme}
		for _, c := range row.Cells {
			cells = append(cells, c.render())
		}
		t.AddRowf(cells...)
	}
	return t
}

// render formats a cell: the ratio, annotated with the unavailable
// fraction when some trials could not be answered.
func (c AvailabilityCell) render() string {
	switch {
	case c.Unavailable >= 1:
		return "unavail"
	case c.Unavailable > 0:
		return fmt.Sprintf("%.2f (%.0f%% unavail)", c.Ratio, c.Unavailable*100)
	default:
		return fmt.Sprintf("%.2f", c.Ratio)
	}
}

// DrillReport renders the end-to-end fault drill as text.
func (r *AvailabilityResult) DrillReport() string {
	d := r.Drill
	var b strings.Builder
	fmt.Fprintf(&b, "fault drill — %s, disk %d fail-stop, transient p=%.2f:\n",
		d.Method, d.FailedDisk, d.TransientProb)
	verified := "MISMATCH"
	if d.Verified {
		verified = "verified identical to fault-free run"
	}
	fmt.Fprintf(&b, "  degraded query: %d records (%s), %d transient reads retried, %d buckets failed over\n",
		d.Records, verified, d.Retries, d.Rerouted)
	fmt.Fprintf(&b, "  busiest-disk load: %d buckets healthy → %d degraded (%.2f×)\n",
		d.HealthyLoad, d.DegradedLoad, float64(d.DegradedLoad)/float64(max(1, d.HealthyLoad)))
	if d.UnreplicatedErr != "" {
		fmt.Fprintf(&b, "  without replication: %s\n", d.UnreplicatedErr)
	}
	return b.String()
}
