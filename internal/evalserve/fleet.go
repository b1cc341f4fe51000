package evalserve

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/rng"
	"tensorkmc/internal/telemetry"
)

// FleetOptions tune a FleetClient; zero values take the defaults. The
// defaults are shaped for the paper's operating point — at fleet scale
// node loss is routine, not exceptional — so retry, failover and (when a
// Fallback is supplied) local degradation are all on by default.
type FleetOptions struct {
	// Timeout bounds every wire interaction with a node: the dial, the
	// hello, and each request/reply round trip (default 5s; negative
	// disables deadlines).
	Timeout time.Duration
	// Retries is the extra attempts (reconnect + resend) a request gives
	// one node before failing over to the next ring replica (default 2;
	// negative means none). Resending is always safe: requests are
	// content-addressed and replies are exact-f64 deterministic, so the
	// protocol is idempotent.
	Retries int
	// Seed drives the backoff jitter stream.
	Seed uint64
	// ProbeEvery re-probes a down node after every Nth request that
	// would have routed to it (default 64): the node's recovery is
	// detected by traffic, not by a wall-clock timer, so tests and
	// replays stay deterministic.
	ProbeEvery int
	// Fallback, if non-nil, is the local evaluation path used when every
	// fleet node is unreachable past its retry budget — the graceful-
	// degradation contract: a running simulation never dies because of
	// the network. The fallback must be bit-identical to the fleet's
	// backends (any f64 model over the same tables is), so degradation
	// cannot change a trajectory.
	Fallback kmc.Model
	// Dialer replaces the TCP dial — the chaos-injection hook. Nil means
	// plain net.Dial.
	Dialer func(addr string) (net.Conn, error)
	// Sleep, if non-nil, replaces time.Sleep for backoff waits (tests
	// inject a no-op to keep chaos runs fast).
	Sleep func(time.Duration)
	// Telemetry, if non-nil, exports the fleet counters
	// (tkmc_fleet_*_total) and a per-node up/down gauge.
	Telemetry *telemetry.Set
}

func (o *FleetOptions) applyDefaults() {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 64
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// The exponential backoff between retry attempts: the sleep before
// retry n is drawn uniformly from [d/2, d) with d = min(backoffBase<<n,
// backoffMax) — jitter from a stream seeded by FleetOptions.Seed, never
// the wall clock (the supervise discipline).
const (
	backoffBase = 5 * time.Millisecond
	backoffMax  = 250 * time.Millisecond
)

// FleetStats is a point-in-time account of a FleetClient's fault
// handling.
type FleetStats struct {
	// Retries counts re-attempts (reconnect + resend) against a node
	// that had just failed; Failovers counts requests that moved on to
	// the next ring replica; Fallbacks counts requests answered by the
	// local fallback path; Reconnects counts successful re-dials of a
	// previously connected node.
	Retries    int64
	Failovers  int64
	Fallbacks  int64
	Reconnects int64
	// NodeUp maps each member address to its current health.
	NodeUp map[string]bool
}

// fleetNode is one serve node's connection state. Its mutex serialises
// requests to the node (a session is one request/reply stream) and
// guards the down/probe bookkeeping.
type fleetNode struct {
	addr string
	// pick and served are the node's span annotations, built once so a
	// request formats nothing.
	pick, served string

	mu     sync.Mutex
	cl     *session // nil when not connected
	dialed bool     // a connection has succeeded at least once
	down   bool
	skips  int64 // requests skipped since marked down

	up atomic.Bool // mirrors !down for lock-free gauges
}

// FleetClient routes evaluation requests across a fleet of Serve
// nodes: a consistent-hash ring over the content-addressed VET key
// space picks each request's owner (so every client aims the same
// environment at the same node's cache), a deadline/retry layer hides
// transient transport faults, ring replicas absorb node loss, and an
// optional local fallback path absorbs the loss of the whole fleet.
// It implements kmc.Model, so an engine pointed at a fleet is exactly
// an engine pointed at any other potential — and because every node and
// the fallback produce bit-identical f64 energies for the same
// environment, retries, failover and degradation can never change a
// trajectory, only its wall-clock speed.
//
// The node set and the ring are fixed when the client is dialled; a
// fleet of one address is how a client talks to one node.
//
// A FleetClient is safe for concurrent use: requests to one node
// serialise on that node's session, requests to different nodes
// proceed in parallel.
type FleetClient struct {
	tb    *encoding.Tables
	opts  FleetOptions
	ring  *Ring
	nodes []*fleetNode // indexed by ring position (Ring.Node)

	mu  sync.Mutex // guards the jitter stream
	rnd *rng.Stream

	retries    atomic.Int64
	failovers  atomic.Int64
	fallbacks  atomic.Int64
	reconnects atomic.Int64

	// evalPh times every request (fleet/eval; nil without telemetry);
	// traceCtx is the ambient trace context requests open their spans
	// under — set per KMC segment by SetTrace, nil while tracing is off.
	evalPh   *telemetry.Phase
	traceCtx atomic.Pointer[telemetry.Context]
}

// DialFleet builds a fleet client over the given node addresses for the
// process's shared tables of a and rcut (encoding.New), which every node
// session uses, and probes each node once. Unreachable nodes are marked
// down (to be re-probed by traffic), not fatal; it only fails when every
// node is unreachable and no Fallback is configured — the one
// configuration in which the client could never answer a request.
// Frozen: bench/ dials its traced repetition's fleet with it.
func DialFleet(addrs []string, a, rcut float64, opts FleetOptions) (*FleetClient, error) {
	opts.applyDefaults()
	if len(addrs) == 0 && opts.Fallback == nil {
		return nil, errors.New("evalserve: fleet needs at least one node or a fallback model")
	}
	fc := &FleetClient{
		tb:   encoding.New(a, rcut),
		opts: opts,
		ring: NewRing(addrs, DefaultVNodes),
		rnd:  rng.New(opts.Seed ^ 0xf1ee7),
	}
	fc.evalPh = opts.Telemetry.Trace().PhaseAt(telemetry.PhaseFleet, telemetry.PhaseEval)
	fc.nodes = make([]*fleetNode, fc.ring.Len())
	for i := range fc.nodes {
		addr := fc.ring.Node(i)
		fc.nodes[i] = &fleetNode{addr: addr, pick: "pick node=" + addr, served: "node=" + addr}
	}
	anyUp := false
	for _, n := range fc.nodes {
		if fc.probe(n) == nil {
			anyUp = true
		}
	}
	if !anyUp && opts.Fallback == nil && len(addrs) > 0 {
		return nil, &fault.TransportError{Op: "dial", Addr: addrs[0],
			Err: errors.New("evalserve: no fleet node reachable and no fallback configured")}
	}
	fc.bindTelemetry()
	return fc, nil
}

// bindTelemetry exports the fleet counters and per-node health gauges
// as function-backed metrics over the same atomics Stats() reads.
func (fc *FleetClient) bindTelemetry() {
	set := fc.opts.Telemetry
	if set == nil {
		return
	}
	reg := set.Reg()
	reg.CounterFunc(telemetry.MetricFleetRetries,
		"Evaluation requests re-attempted against a just-failed fleet node.",
		fc.retries.Load)
	reg.CounterFunc(telemetry.MetricFleetFailovers,
		"Evaluation requests failed over to the next ring replica.",
		fc.failovers.Load)
	reg.CounterFunc(telemetry.MetricFleetFallbacks,
		"Evaluation requests answered by the local fallback path.",
		fc.fallbacks.Load)
	reg.CounterFunc(telemetry.MetricFleetReconnects,
		"Successful re-dials of a previously connected fleet node.",
		fc.reconnects.Load)
	for _, n := range fc.nodes {
		reg.GaugeFunc(telemetry.MetricFleetNodeUp,
			"Fleet node health: 1 when the last interaction succeeded, 0 while down.",
			func() float64 {
				if n.up.Load() {
					return 1
				}
				return 0
			}, "node", n.addr)
	}
}

// probe dials a node once outside any request and records its health.
func (fc *FleetClient) probe(n *fleetNode) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cl != nil && !n.cl.broken {
		return nil
	}
	cl, err := fc.dialNode(n)
	if err != nil {
		n.down = true
		n.up.Store(false)
		return err
	}
	n.cl = cl
	n.dialed = true
	n.down = false
	n.up.Store(true)
	return nil
}

// dialNode opens one wire session to the node (n.mu held by caller).
func (fc *FleetClient) dialNode(n *fleetNode) (*session, error) {
	timeout := fc.opts.Timeout
	if timeout < 0 {
		timeout = 0
	}
	return dial(n.addr, fc.tb, timeout, fc.opts.Dialer)
}

// Tables returns the tables the fleet client was dialled with (kmc.Model).
func (fc *FleetClient) Tables() *encoding.Tables { return fc.tb }

// Close ends every node session. The client must not be used after.
func (fc *FleetClient) Close() error {
	for _, n := range fc.nodes {
		n.mu.Lock()
		if n.cl != nil {
			n.cl.Close()
			n.cl = nil
		}
		n.mu.Unlock()
	}
	return nil
}

// SetTrace installs the ambient distributed-trace context under which
// subsequent requests open their spans — typically one context per KMC
// segment (core calls this at segment boundaries). An invalid context
// clears it: requests then still aggregate under fleet/eval but journal
// nothing. The context propagates to serving nodes in every eval frame;
// reading it is one atomic load.
func (fc *FleetClient) SetTrace(ctx telemetry.Context) {
	if !ctx.Valid() {
		fc.traceCtx.Store(nil)
		return
	}
	fc.traceCtx.Store(&ctx)
}

// startSpan opens one request's fleet/eval span under the ambient
// context; it journals only while tracing is on.
func (fc *FleetClient) startSpan() telemetry.Span {
	var ctx telemetry.Context
	if p := fc.traceCtx.Load(); p != nil {
		ctx = *p
	}
	return fc.evalPh.StartUnder(ctx)
}

// Stats snapshots the fleet's fault-handling counters and node health.
func (fc *FleetClient) Stats() FleetStats {
	st := FleetStats{
		Retries:    fc.retries.Load(),
		Failovers:  fc.failovers.Load(),
		Fallbacks:  fc.fallbacks.Load(),
		Reconnects: fc.reconnects.Load(),
		NodeUp:     make(map[string]bool, len(fc.nodes)),
	}
	for _, n := range fc.nodes {
		st.NodeUp[n.addr] = n.up.Load()
	}
	return st
}

// Evaluate resolves one vacancy system through the fleet: the VET is
// packed once, and its packed key is what the ring routes on and what
// every attempt sends. The ring replica order for the key is walked with
// a bounded retry budget per node; when every node is exhausted the
// local fallback answers. Corruption reported by any node returns
// immediately as *fault.CorruptionError (failing over would mask a
// poisoned backend), and so does a VET that does not pack, before any
// dial or write; with no fallback and no reachable node the last
// transport error returns, always typed.
func (fc *FleetClient) Evaluate(vet encoding.VET) (Result, error) {
	sp := fc.startSpan()
	var buf [encoding.KeyStack]byte
	key, err := fc.tb.PackEnv(buf[:0], vet)
	if err != nil {
		sp.EndMsg("error=corruption")
		return Result{}, corruptVET(err)
	}
	var ob [8]int // the replica order, on the stack for up to 8 nodes
	order := fc.ring.Order(encoding.KeyHash(key), ob[:0])

	var lastErr error
	tried := 0
	for i, idx := range order {
		n := fc.nodes[idx]
		res, err, attempted := fc.tryNode(n, key, sp)
		if !attempted {
			continue // down and not due for a probe
		}
		if tried > 0 || i > 0 {
			fc.failovers.Add(1)
			sp.Event("failover node=%s ring-pos=%d", n.addr, i)
		} else {
			sp.Event(n.pick)
		}
		tried++
		if err == nil {
			sp.EndMsg(n.served)
			return res, nil
		}
		var ce *fault.CorruptionError
		if errors.As(err, &ce) {
			sp.EndMsg("error=corruption node=%s", n.addr)
			return Result{}, err
		}
		lastErr = err
	}

	if fb := fc.opts.Fallback; fb != nil {
		fc.fallbacks.Add(1)
		sp.Event("local-fallback")
		res, err := evalLocal(fb, vet)
		if err != nil {
			sp.EndMsg("error=%v", err)
		} else {
			sp.EndMsg("node=local-fallback")
		}
		return res, err
	}
	if lastErr == nil {
		lastErr = &fault.TransportError{Op: "eval", Addr: "fleet",
			Err: errors.New("evalserve: no fleet node available")}
	}
	var te *fault.TransportError
	if !errors.As(lastErr, &te) {
		lastErr = &fault.TransportError{Op: "eval", Addr: "fleet", Err: lastErr}
	}
	sp.EndMsg("error=transport-exhausted")
	return Result{}, lastErr
}

// tryNode sends one packed key to one node with the per-node retry
// budget. attempted is false when the node is down and this request is
// not its scheduled probe. Holding the node mutex across the whole
// attempt sequence serialises the session and makes the down/probe
// bookkeeping race-free.
func (fc *FleetClient) tryNode(n *fleetNode, key []byte, sp telemetry.Span) (res Result, err error, attempted bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		n.skips++
		if n.skips%int64(fc.opts.ProbeEvery) != 0 {
			return Result{}, nil, false
		}
		// This request is the probe: fall through and try to reconnect.
	}
	var lastErr error
	for attempt := 0; attempt <= fc.opts.Retries; attempt++ {
		if attempt > 0 {
			fc.retries.Add(1)
			sp.Event("retry node=%s attempt=%d", n.addr, attempt)
			fc.opts.Sleep(fc.backoff(attempt - 1))
		}
		if n.cl == nil || n.cl.broken {
			cl, derr := fc.dialNode(n)
			if derr != nil {
				lastErr = derr
				continue
			}
			if n.dialed {
				fc.reconnects.Add(1)
			}
			n.cl = cl
			n.dialed = true
		}
		res, rerr := n.cl.eval(key, sp.Context())
		if rerr == nil {
			n.down = false
			n.skips = 0
			n.up.Store(true)
			return res, nil, true
		}
		var ce *fault.CorruptionError
		if errors.As(rerr, &ce) {
			return Result{}, rerr, true // poisoned backend: not a transport fault
		}
		// Transport failure or server refusal: the session cannot be
		// trusted — drop it and retry from a fresh dial.
		n.cl.Close()
		n.cl = nil
		lastErr = rerr
	}
	n.down = true
	n.skips = 0
	n.up.Store(false)
	return Result{}, lastErr, true
}

// backoff returns the jittered exponential delay for the given 0-based
// retry index.
func (fc *FleetClient) backoff(nth int) time.Duration {
	d := backoffBase
	for i := 0; i < nth && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	half := d / 2
	fc.mu.Lock()
	jit := fc.rnd.Float64()
	fc.mu.Unlock()
	return half + time.Duration(jit*float64(half))
}

// evalLocal runs the fallback model, converting a corruption tripwire
// panic into the typed error the caller classifies.
func evalLocal(m kmc.Model, vet encoding.VET) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ce, ok := p.(*fault.CorruptionError); ok {
				err = ce
				return
			}
			panic(p)
		}
	}()
	res.Initial, res.Final, res.Valid = m.HopEnergies(vet)
	return res, nil
}

// HopEnergies implements kmc.Model over the fleet: Evaluate with the
// engine-layer panic contract — corruption re-panics typed, transport
// exhaustion (no fallback) panics as *fault.TransportError, which the
// engine layers convert into a retryable error for the supervisor.
func (fc *FleetClient) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	res, err := fc.Evaluate(vet)
	if err != nil {
		panic(asEnginePanic(err))
	}
	return res.Initial, res.Final, res.Valid
}

// asEnginePanic shapes an evaluation error for the engine recovery
// layers: corruption stays corruption, anything else becomes a typed
// transport failure.
func asEnginePanic(err error) error {
	var ce *fault.CorruptionError
	if errors.As(err, &ce) {
		return ce
	}
	var te *fault.TransportError
	if errors.As(err, &te) {
		return te
	}
	return &fault.TransportError{Op: "eval", Addr: "fleet", Err: err}
}
