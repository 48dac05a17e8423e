package cluster

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"decluster/internal/alloc"
	"decluster/internal/datagen"
	"decluster/internal/fault"
	"decluster/internal/obs"
	"decluster/internal/serve"
)

// HarnessConfig configures an in-process cluster: N real HTTP servers
// on loopback, one per node, plus a router over them. Chaos experiments
// and tests exercise the full wire path — frame and JSON encoding, transport
// errors, connection aborts — without leaving the process.
type HarnessConfig struct {
	// Map is the cluster's shard map (required).
	Map *ShardMap
	// Method declusters each node's buckets locally (required).
	Method alloc.Method
	// Records is the full dataset; each node keeps its hosted slice.
	Records []datagen.Record
	// Standbys boots this many extra empty nodes beyond the map — the
	// members a join migration will bring in. Standby k gets member ID
	// MaxMember()+1+k and an endpoint the router already knows.
	Standbys int
	// SlowUnit converts slow-node factors into per-request delay.
	SlowUnit time.Duration
	// Obs optionally observes every node's scheduler and the router.
	Obs *obs.Sink
	// ServeOptions passes extra scheduler options to every node.
	ServeOptions []serve.Option
	// NodeDeadline, Retry, Breaker, HedgeAfter configure the router
	// (see RouterConfig); zero values select router defaults.
	Router RouterConfig
}

// Harness is a running in-process cluster.
type Harness struct {
	nodes   []*Node
	servers []*http.Server
	urls    []string
	faults  *fault.NodeInjector
	router  *Router
}

// StartHarness boots the cluster: builds and loads every node (plus any
// standbys), binds each to its own loopback listener, and wires a
// router over them. Callers must Close it.
func StartHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: harness needs a shard map")
	}
	h := &Harness{faults: fault.NewNodeInjector()}
	total := cfg.Map.Nodes() + cfg.Standbys
	for i := 0; i < total; i++ {
		member := i
		if i < cfg.Map.Nodes() {
			member = cfg.Map.MemberAt(i)
		} else {
			member = cfg.Map.MaxMember() + 1 + (i - cfg.Map.Nodes())
		}
		n, err := NewNode(NodeConfig{
			ID:           member,
			Map:          cfg.Map,
			Method:       cfg.Method,
			Records:      cfg.Records,
			Faults:       h.faults,
			SlowUnit:     cfg.SlowUnit,
			Obs:          cfg.Obs,
			ServeOptions: cfg.ServeOptions,
		})
		if err != nil {
			h.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: node %d listen: %w", member, err)
		}
		srv := &http.Server{Handler: n.Handler()}
		go func() { _ = srv.Serve(ln) }()
		h.nodes = append(h.nodes, n)
		h.servers = append(h.servers, srv)
		h.urls = append(h.urls, "http://"+ln.Addr().String())
	}
	rcfg := cfg.Router
	rcfg.Map = cfg.Map
	rcfg.Endpoints = h.urls
	if rcfg.Obs == nil {
		rcfg.Obs = cfg.Obs
	}
	rt, err := NewRouter(rcfg)
	if err != nil {
		h.Close()
		return nil, err
	}
	h.router = rt
	return h, nil
}

// Router returns the harness's scatter/gather client.
func (h *Harness) Router() *Router { return h.router }

// Map returns the shard map the router currently routes under — the
// live view, advancing as migrations adopt new epochs.
func (h *Harness) Map() *ShardMap { return h.router.Map() }

// Faults returns the shared node-level injector.
func (h *Harness) Faults() *fault.NodeInjector { return h.faults }

// Node returns the i-th node (member ID i for identity-membered maps).
func (h *Harness) Node(i int) *Node { return h.nodes[i] }

// Nodes returns the booted node count, standbys included.
func (h *Harness) Nodes() int { return len(h.nodes) }

// URL returns node i's base URL.
func (h *Harness) URL(i int) string { return h.urls[i] }

// URLs returns every node's base URL, indexed by member ID.
func (h *Harness) URLs() []string { return append([]string(nil), h.urls...) }

// Close stops every HTTP server (aborting in-flight connections, which
// unblocks partitioned handlers) and drains every node's scheduler.
func (h *Harness) Close() {
	for _, srv := range h.servers {
		_ = srv.Close()
	}
	for _, n := range h.nodes {
		_ = n.Close()
	}
}
