package autopilot

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"decluster/internal/cluster"
	"decluster/internal/obs"
	"decluster/internal/repair"
)

// Config wires a Controller to a live cluster.
type Config struct {
	// Router is the scatter/gather client whose map the controller
	// grows and shrinks; every migration has it adopt the new map after
	// the last cutover ack (required).
	Router *cluster.Router
	// Endpoints holds one base URL per member ID — the same slice the
	// router was built over, standbys included (required).
	Endpoints []string
	// Client optionally overrides the HTTP client used for health
	// probes and migration traffic.
	Client *http.Client
	// Obs optionally receives the controller's own metric set
	// (autopilot.*). The signals do not depend on it: they come from the
	// nodes' health replies and the router's breakers.
	Obs *obs.Sink
	// Tick is the control-loop period (default 50ms).
	Tick time.Duration
	// Policy sets thresholds, hysteresis, cool-down, and the node
	// envelope; zero fields take Policy defaults.
	Policy Policy
	// MigrateRate throttles autopilot migrations in pages per second
	// through the repair token bucket (0 = unthrottled); New refuses a
	// rate repair.NewThrottle refuses (negative, NaN or infinite).
	MigrateRate float64
	// OnDecision, when set, receives every logged decision line as it
	// happens — declusterd points this at its logger.
	OnDecision func(string)
}

// Stats is a snapshot of the controller's lifetime accounting.
type Stats struct {
	// Ticks is the number of control-loop iterations run.
	Ticks uint64
	// Joins and Leaves count completed migrations by direction;
	// Aborts counts migrations that rolled back.
	Joins, Leaves, Aborts uint64
	// Vetoes counts fuse vetoes of otherwise-ready actions.
	Vetoes uint64
	// Thrash counts executed direction reversals inside the thrash
	// window — the flapping metric, asserted zero under adversarial
	// schedules.
	Thrash uint64
	// Buckets and Records total the data moved by autopilot-driven
	// migrations — the migration cost the experiments bound.
	Buckets, Records int
	// State is the machine's current position.
	State State
}

// apMetrics is the controller's obs handle set (all nil-safe).
type apMetrics struct {
	state                        *obs.Gauge
	ticks, joins, leaves, aborts *obs.Counter
	thrash, buckets              *obs.Counter
	vetoes                       *obs.CounterFamily
}

func newAPMetrics(r *obs.Registry) apMetrics {
	return apMetrics{
		state:   r.Gauge("autopilot.state"),
		ticks:   r.Counter("autopilot.ticks"),
		joins:   r.Counter("autopilot.joins"),
		leaves:  r.Counter("autopilot.leaves"),
		aborts:  r.Counter("autopilot.aborts"),
		thrash:  r.Counter("autopilot.thrash"),
		buckets: r.Counter("autopilot.buckets.moved"),
		vetoes:  r.CounterFamily("autopilot.vetoes", "fuse", numFuses),
	}
}

// Controller runs the autopilot loop: collect signals, step the
// machine, execute what it decides. Start it with Run (blocking) or
// Start/Stop (background); all accessors are safe for concurrent use.
type Controller struct {
	cfg     Config
	machine *Machine
	watch   *watcher
	metrics apMetrics

	mu    sync.Mutex
	stats Stats
	log   []string
	// lastThrash mirrors the machine's counter into the obs twin by
	// delta; loop-goroutine only.
	lastThrash uint64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// maxLog bounds the retained decision log (oldest dropped first).
const maxLog = 128

// windowTicks is the sliding-window depth in ticks for p99 and shed
// rate; minProbeTimeout floors the per-tick health-probe fan-out's
// bound, which is otherwise one Tick.
const (
	windowTicks     = 4
	minProbeTimeout = 20 * time.Millisecond
)

// New validates the wiring and builds a controller in Steady.
func New(cfg Config) (*Controller, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("autopilot: nil router")
	}
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("autopilot: no endpoints")
	}
	if _, err := repair.NewThrottle(cfg.MigrateRate, 0); err != nil {
		return nil, fmt.Errorf("autopilot: MigrateRate: %w", err)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 50 * time.Millisecond
	}
	c := &Controller{
		cfg:     cfg,
		machine: NewMachine(cfg.Policy),
		watch: &watcher{router: cfg.Router, endpoints: cfg.Endpoints, client: cfg.Client,
			timeout: max(cfg.Tick, minProbeTimeout), window: windowTicks},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if cfg.Obs != nil {
		c.metrics = newAPMetrics(cfg.Obs.Registry())
	}
	return c, nil
}

// Run drives the control loop until ctx is done or Stop is called. A
// migration in flight finishes (or aborts and rolls back) before Run
// returns, so shutdown never strands a half-staged epoch.
func (c *Controller) Run(ctx context.Context) {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.stop:
			return
		case now := <-t.C:
			c.tick(ctx, now)
		}
	}
}

// Start runs the loop in a goroutine; pair with Stop.
func (c *Controller) Start() {
	go c.Run(context.Background())
}

// Stop halts the loop and waits for it — including any migration it
// is mid-way through — to finish.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// tick is one observe→decide→act iteration.
func (c *Controller) tick(ctx context.Context, now time.Time) {
	sig := c.watch.collect(now)
	d := c.machine.Step(now, sig)

	c.metrics.ticks.Inc()
	c.metrics.state.Set(int64(d.State))
	c.mu.Lock()
	c.stats.Ticks++
	c.stats.State = d.State
	c.stats.Thrash = c.machine.Thrash()
	if d.Veto != FuseNone {
		c.stats.Vetoes++
	}
	c.mu.Unlock()
	if d.Veto != FuseNone {
		// Veto counters are indexed from FuseBreakersOpen == 1.
		c.metrics.vetoes.At(int(d.Veto) - 1).Inc()
	}
	if th := c.machine.Thrash(); th > c.lastThrash {
		c.metrics.thrash.Add(th - c.lastThrash)
		c.lastThrash = th
	}
	if d.Reason != "" {
		c.logf("%s [%s] %s", now.Format("15:04:05.000"), d.State, d.Reason)
	}
	if d.Action != ActNone {
		c.execute(ctx, now, d.Action)
	}
}

// execute runs one planned membership change synchronously; the
// machine sits in Migrating (and every other actor sees the staged
// pending epoch) until it completes or rolls back.
func (c *Controller) execute(ctx context.Context, now time.Time, act Action) {
	plan, desc, err := c.plan(act)
	var throttle *repair.Throttle // a fresh burst per migration
	if err == nil {
		throttle, err = repair.NewThrottle(c.cfg.MigrateRate, 0)
	}
	if err != nil {
		// Planning failed before anything moved: no rollback needed,
		// but cool down as if aborted so we don't spin on a bad plan.
		c.machine.MigrationDone(time.Now(), true)
		c.noteAbort()
		c.logf("%s [%s] plan failed: %v", now.Format("15:04:05.000"), c.machine.State(), err)
		return
	}
	mcfg := cluster.MigrateConfig{
		Plan:      plan,
		Endpoints: c.cfg.Endpoints,
		Client:    c.cfg.Client,
		Obs:       c.cfg.Obs,
		Router:    c.cfg.Router,
		Throttle:  throttle,
	}
	st, err := cluster.Migrate(ctx, mcfg)
	aborted := err != nil || st.Aborted
	c.machine.MigrationDone(time.Now(), aborted)
	if aborted {
		c.noteAbort()
		c.logf("%s [%s] %s aborted after %d buckets (rolled back): %v",
			now.Format("15:04:05.000"), c.machine.State(), desc, st.Buckets, err)
		return
	}
	c.mu.Lock()
	if act == ActJoin {
		c.stats.Joins++
	} else {
		c.stats.Leaves++
	}
	c.stats.Buckets += st.Buckets
	c.stats.Records += st.Records
	c.stats.Thrash = c.machine.Thrash()
	c.mu.Unlock()
	if act == ActJoin {
		c.metrics.joins.Inc()
	} else {
		c.metrics.leaves.Inc()
	}
	c.metrics.buckets.Add(uint64(st.Buckets))
	c.logf("%s [%s] %s complete: %d buckets, %d records in %v (epoch %d)",
		now.Format("15:04:05.000"), c.machine.State(), desc,
		st.Buckets, st.Records, st.Elapsed.Round(time.Millisecond), c.cfg.Router.Epoch())
}

// plan builds the membership change for the decided direction: joins
// bring in the standby under the next member ID, leaves drain the
// highest member — the most recent joiner — whose endpoint then
// answers "standby" again and naturally returns to the pool.
func (c *Controller) plan(act Action) (*cluster.MigrationPlan, string, error) {
	sm := c.cfg.Router.Map()
	if act == ActJoin {
		p, err := cluster.PlanJoin(sm)
		if err != nil {
			return nil, "", err
		}
		if p.Member >= len(c.cfg.Endpoints) || c.cfg.Endpoints[p.Member] == "" {
			return nil, "", fmt.Errorf("autopilot: no endpoint for planned joiner %d", p.Member)
		}
		return p, fmt.Sprintf("join of member %d", p.Member), nil
	}
	victim := -1
	for _, m := range sm.Members() {
		if m > victim {
			victim = m
		}
	}
	p, err := cluster.PlanLeave(sm, victim)
	if err != nil {
		return nil, "", err
	}
	return p, fmt.Sprintf("leave of member %d", victim), nil
}

func (c *Controller) noteAbort() {
	c.mu.Lock()
	c.stats.Aborts++
	c.mu.Unlock()
	c.metrics.aborts.Inc()
}

// logf appends one decision-log line (bounded ring) and mirrors it to
// OnDecision and the thrash counter's obs twin.
func (c *Controller) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	c.mu.Lock()
	c.log = append(c.log, line)
	if len(c.log) > maxLog {
		c.log = c.log[len(c.log)-maxLog:]
	}
	cb := c.cfg.OnDecision
	c.mu.Unlock()
	if cb != nil {
		cb(line)
	}
}

// State returns the machine's current position.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.State
}

// Stats snapshots the controller's accounting.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DecisionLog copies the retained decision lines, oldest first.
func (c *Controller) DecisionLog() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.log...)
}
