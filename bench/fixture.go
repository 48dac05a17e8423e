package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"decluster"
	"decluster/internal/cluster"
	"decluster/internal/cost"
	"decluster/internal/fault"
	"decluster/internal/grid"
	"decluster/internal/serve"
)

// The common fixture: the ROADMAP's canonical set.
const (
	gridSide     = 64
	disks        = 16
	numRecords   = 50000
	clusterNodes = 4
	replicas     = 2
	largeSide    = 48 // 2 304 buckets, ~28k records
	smallSide    = 6  // 36 buckets, ~440 records
	nodeDeadline = 5 * time.Second
)

// dataset is everything the seed determines about the stored data: the
// grid, the allocation, the records, and a single grid file holding all
// of them that every query workload's answers are checked against.
type dataset struct {
	g      *decluster.Grid
	method decluster.Method
	recs   []decluster.Record
	oracle *decluster.GridFile
	model  *cost.PrefixEvaluator
}

// newDataset generates the records and the allocation. It is part of
// every query workload's set-up.
func newDataset(seed int64) (*dataset, error) {
	g, err := decluster.NewGrid(gridSide, gridSide)
	if err != nil {
		return nil, err
	}
	m, err := decluster.NewHCAM(g, disks)
	if err != nil {
		return nil, err
	}
	return &dataset{g: g, method: m, recs: decluster.UniformRecords{K: 2, Seed: seed}.Generate(numRecords)}, nil
}

// buildOracle loads the single-file oracle and the cost model the live
// path is compared with. It is the benchmark's own work, so it runs
// after set-up has been timed.
func (ds *dataset) buildOracle() error {
	f, err := loadFile(ds.method, ds.recs)
	if err != nil {
		return err
	}
	ds.oracle = f
	ds.model, err = cost.NewPrefixEvaluator(ds.method)
	return err
}

func loadFile(m decluster.Method, recs []decluster.Record) (*decluster.GridFile, error) {
	f, err := decluster.NewGridFile(decluster.GridFileConfig{Method: m})
	if err != nil {
		return nil, err
	}
	return f, f.InsertAll(recs)
}

// squareAt returns the side×side rect whose low corner is (x, y).
func (ds *dataset) squareAt(x, y, side int) decluster.Rect {
	return ds.g.MustRect(decluster.Coord{x, y}, decluster.Coord{x + side - 1, y + side - 1})
}

// placements draws n placements of a side×side square uniformly from
// the seeded stream.
func (ds *dataset) placements(rng *rand.Rand, side, n int) []decluster.Rect {
	out := make([]decluster.Rect, n)
	for i := range out {
		out[i] = ds.squareAt(rng.Intn(gridSide-side+1), rng.Intn(gridSide-side+1), side)
	}
	return out
}

// The canonical ladder rects.
func (ds *dataset) rectL() decluster.Rect { return ds.squareAt(8, 8, largeSide) }
func (ds *dataset) rectS() decluster.Rect { return ds.squareAt(29, 29, smallSide) }

// answer is what a range search must return: how many records, and an
// order-independent checksum of their IDs.
type answer struct {
	count int
	sum   uint64
}

func checksum(recs []decluster.Record) answer {
	a := answer{count: len(recs)}
	for i := range recs {
		a.sum += (uint64(recs[i].ID) + 1) * 0x9E3779B97F4A7C15
	}
	return a
}

// expect answers r from the oracle.
func (ds *dataset) expect(r decluster.Rect) (answer, error) {
	rs, err := ds.oracle.CellRangeSearch(r)
	if err != nil {
		return answer{}, err
	}
	return checksum(rs.Records), nil
}

func (ds *dataset) expectAll(rects []decluster.Rect) ([]answer, error) {
	out := make([]answer, len(rects))
	for i, r := range rects {
		var err error
		if out[i], err = ds.expect(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// predicted is the makespan the cost model predicts for r on one grid
// file: the kernel's per-disk loads, less the buckets the grid directory
// knows are empty (the executor skips those without a read), busiest
// disk. On 50k uniform records an empty bucket is a one-in-a-hundred
// rect; without the correction those rects would read as a model miss.
func (ds *dataset) predicted(r decluster.Rect) int {
	loads := append([]int(nil), ds.model.Loads(r)...)
	grid.EachRect(r, func(c grid.Coord) bool {
		if ds.oracle.BucketLen(ds.g.Linearize(c)) == 0 {
			loads[ds.method.DiskOf(c)]--
		}
		return true
	})
	return maxInt(loads)
}

// aggExpect answers an aggregate by brute force over the oracle's
// records.
func (ds *dataset) aggExpect(q decluster.AggregateQuery) (decluster.AggregateResult, error) {
	rs, err := ds.oracle.CellRangeSearch(q.Rect)
	if err != nil {
		return decluster.AggregateResult{}, err
	}
	out := decluster.AggregateResult{Op: q.Op, Attr: q.Attr, Count: int64(len(rs.Records)), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, rec := range rs.Records {
		v := rec.Values[q.Attr]
		out.Sum += v
		out.Min = math.Min(out.Min, v)
		out.Max = math.Max(out.Max, v)
	}
	return out, nil
}

// aggMatches compares the field the op defines: counts and extrema
// exactly, sums within a relative epsilon (the index adds in a different
// order than the brute force).
func aggMatches(got, want decluster.AggregateResult) bool {
	if got.Count != want.Count {
		return false
	}
	switch got.Op {
	case decluster.AggSum:
		return math.Abs(got.Sum-want.Sum) <= 1e-9*math.Max(1, math.Abs(want.Sum))
	case decluster.AggMin:
		return want.Count == 0 || got.Min == want.Min
	case decluster.AggMax:
		return want.Count == 0 || got.Max == want.Max
	}
	return true
}

// nodeLargeOptions is the BenchmarkServeSoak configuration: failover to
// an offset-8 replica, a 1 ms hedge, a deep admission queue.
func nodeLargeOptions(m decluster.Method) ([]decluster.ServeOption, error) {
	rep, err := decluster.NewOffsetReplication(m, disks/2)
	if err != nil {
		return nil, err
	}
	return []decluster.ServeOption{
		decluster.WithServeFailover(rep),
		decluster.WithHedging(decluster.HedgeConfig{After: time.Millisecond}),
		decluster.WithAdmission(decluster.AdmissionConfig{MaxQueue: 1024}),
	}, nil
}

// clusterOptions selects a cluster fixture's variant.
type clusterOptions struct {
	// inproc replaces the loopback servers with a RoundTripper that
	// calls each node's handler directly: same bytes, no sockets.
	inproc bool
	// hedgeAfter and slowUnit configure the straggler variant.
	hedgeAfter, slowUnit time.Duration
	// hooks, when set, wraps the transport, the node handlers and the
	// nodes' bucket readers with the benchmark's span recorder.
	hooks *tracer
}

// clusterFx is a running four-node cluster: real HTTP over the host's
// loopback interface (or the in-process transport), one router.
type clusterFx struct {
	nodes     []*cluster.Node
	servers   []*http.Server
	urls      []string
	faults    *fault.NodeInjector
	router    *cluster.Router
	transport *http.Transport
	sm        *cluster.ShardMap
}

func newCluster(ds *dataset, opt clusterOptions) (*clusterFx, error) {
	sm, err := decluster.NewChainShardMap(ds.g, clusterNodes, replicas)
	if err != nil {
		return nil, err
	}
	fx := &clusterFx{faults: fault.NewNodeInjector(), sm: sm}
	var serveOpts []serve.Option
	if opt.hooks != nil {
		serveOpts = append(serveOpts, serve.WithReadWrapper(opt.hooks.wrapReader))
	}
	handlers := make(map[string]http.Handler)
	for i := 0; i < clusterNodes; i++ {
		n, err := cluster.NewNode(cluster.NodeConfig{
			ID: sm.MemberAt(i), Map: sm, Method: ds.method, Records: ds.recs,
			Faults: fx.faults, SlowUnit: opt.slowUnit, ServeOptions: serveOpts,
		})
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.nodes = append(fx.nodes, n)
		h := n.Handler()
		if opt.hooks != nil {
			h = opt.hooks.wrapHandler(h)
		}
		if opt.inproc {
			host := fmt.Sprintf("node%d.inproc", i)
			handlers[host] = h
			fx.urls = append(fx.urls, "http://"+host)
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fx.close()
			return nil, err
		}
		srv := &http.Server{Handler: h}
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed from close()
		fx.servers = append(fx.servers, srv)
		fx.urls = append(fx.urls, "http://"+ln.Addr().String())
	}
	var rt http.RoundTripper
	if opt.inproc {
		rt = inprocTransport(handlers)
	} else {
		// The settings a router without a configured client gets.
		fx.transport = http.DefaultTransport.(*http.Transport).Clone()
		rt = fx.transport
	}
	if opt.hooks != nil {
		rt = opt.hooks.wrapTransport(rt)
	}
	fx.router, err = cluster.NewRouter(cluster.RouterConfig{
		Map: sm, Endpoints: fx.urls, Client: &http.Client{Transport: rt},
		NodeDeadline: nodeDeadline, HedgeAfter: opt.hedgeAfter,
	})
	if err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *clusterFx) close() {
	for _, srv := range fx.servers {
		_ = srv.Close()
	}
	if fx.transport != nil {
		fx.transport.CloseIdleConnections()
	}
	for _, n := range fx.nodes {
		_ = n.Close()
	}
}

// inprocTransport serves each request by calling the addressed node's
// handler on the caller's goroutine. The router still encodes, the node
// still decodes and encodes, the router still decodes: everything but
// the socket.
type inprocTransport map[string]http.Handler

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("bench: no in-process node %q", req.URL.Host)
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if req.Body != nil {
		_ = req.Body.Close()
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// searchOK checks one gathered range query against its expected answer.
func searchOK(res *cluster.Result, err error, want answer) bool {
	return err == nil && res != nil && res.Covered == res.SubQueries && checksum(res.Records) == want
}

// startAutopilot attaches a calm controller (thresholds far above
// anything the benchmark drives) ticking every 20 ms: it probes every
// node's health each tick and never acts.
func startAutopilot(fx *clusterFx) (*decluster.Autopilot, error) {
	ap, err := decluster.NewAutopilot(decluster.AutopilotConfig{
		Router: fx.router, Endpoints: fx.urls,
		Client: &http.Client{Transport: fx.transport},
		Tick:   20 * time.Millisecond,
		Policy: decluster.AutopilotPolicy{ScaleUpP99: time.Hour, MinNodes: clusterNodes, MaxNodes: clusterNodes + 1},
	})
	if err != nil {
		return nil, err
	}
	ap.Start()
	return ap, nil
}
