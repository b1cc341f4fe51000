package evalserve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/telemetry"
)

// Wire protocol of the tkmc-serve front-end.
//
// Every frame is a little-endian uint32 payload length followed by the
// payload; payload byte 0 is the opcode. A session starts with a hello
// carrying the client's lattice constant and cutoff and the highest
// protocol version it speaks — the server verifies the geometry
// reproduces its own tables (same geometry ⇒ same NAll ⇒ same VET
// layout) and answers with NAll and the session's version, after which
// the client streams eval frames and receives result frames with the
// exact f64 energies. An eval frame is one fixed size: the opcode, a
// 16-byte trace context (all zero when the request is untraced) and the
// environment's packed key (encoding.PackEnv, ⌈NAll/4⌉ bytes, 296 at
// 6.5 Å) — the bytes the client routed on and the server's cache looks
// up, unchanged. Frames larger than the session bound (one eval frame)
// are rejected and the connection dropped, so one misbehaving client
// cannot grow server memory; both ends read and write a session's eval
// and result frames through buffers they allocate once.
const (
	opHello    = 0x01 // retired version-1 hello (f64 a, f64 rcut); refused by name
	opStats    = 0x03 // client → server: empty
	opHello2   = 0x04 // client → server: f64 a, f64 rcut, u8 max protocol version
	opEval     = 0x06 // client → server: 16-byte trace context, packed key
	opResult   = 0x82 // server → client: f64 initial, 8×f64 final, u8 valid mask
	opStatsOK  = 0x83 // server → client: JSON Stats
	opHelloOK2 = 0x84 // server → client: u32 NAll, u8 session protocol version
	opError    = 0x7f // server → client: u8 kind, message bytes
)

// wireVersion is the one protocol version this build speaks, and so both
// the minimum a server accepts and what a client offers. A hello offering
// more is answered at wireVersion; one offering less (or the version-1
// hello, which had no version byte) is refused with an error frame that
// names the minimum. Version 2 sent one byte per site (opcodes 0x02 and
// 0x05, untraced and traced); version 3 sends the packed key.
const wireVersion = 3

// opError kinds.
const (
	errGeneric    = 0x00
	errCorruption = 0x01 // evaluation tripped a corruption tripwire
)

// minFrame bounds every pre-hello frame; after hello the bound is one
// eval frame (evalFrameLen).
const minFrame = 64

// maxReplyFrame bounds every reply a client reads but the stats JSON:
// a result is 74 bytes and every error the server writes fits well under
// this, so a corrupt length prefix cannot make a session grow its reply
// buffer past it.
const maxReplyFrame = 4 << 10

// maxStatsFrame bounds the stats JSON a client will accept.
const maxStatsFrame = 1 << 20

// resultLen is the payload size of a result frame.
const resultLen = 1 + 8 + 8*8 + 1

// evalFrameLen is the payload size of an eval frame over tb: opcode,
// trace context, packed key.
func evalFrameLen(tb *encoding.Tables) int {
	return 1 + telemetry.ContextSize + tb.KeyLen()
}

// writeFrame writes one frame — a length prefix, then the payload — into
// w's buffer. The prefix is appended in w's free space (AvailableBuffer),
// so a frame allocates nothing.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if _, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf's storage, or a new buffer if buf's
// capacity is short of four bytes or of the payload, refusing payloads
// beyond limit — the bounded-memory guarantee of the session. A caller
// that passes the same buffer each time allocates nothing per frame.
func readFrame(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 {
		return nil, errors.New("evalserve: empty frame")
	}
	if int(n) > limit {
		return nil, fmt.Errorf("evalserve: frame of %d bytes exceeds limit %d", n, limit)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func errorFrame(kind byte, msg string) []byte {
	p := make([]byte, 2+len(msg))
	p[0] = opError
	p[1] = kind
	copy(p[2:], msg)
	return p
}

// errorMsg returns an error frame's message: empty when the frame is
// too short to carry a kind byte.
func errorMsg(p []byte) string {
	if len(p) < 2 {
		return ""
	}
	return string(p[2:])
}

// appendResult appends res's result-frame payload to dst.
func appendResult(dst []byte, res Result) []byte {
	dst = append(dst, opResult)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(res.Initial))
	var mask byte
	for k := 0; k < 8; k++ {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(res.Final[k]))
		if res.Valid[k] {
			mask |= 1 << k
		}
	}
	return append(dst, mask)
}

func decodeResult(p []byte) (Result, error) {
	if len(p) != resultLen || p[0] != opResult {
		return Result{}, fmt.Errorf("evalserve: malformed result frame (%d bytes)", len(p))
	}
	var res Result
	res.Initial = math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
	for k := 0; k < 8; k++ {
		res.Final[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[9+8*k:]))
		res.Valid[k] = p[73]&(1<<k) != 0
	}
	return res, nil
}

// --- Server side --------------------------------------------------------

// FrontendOptions tune a front-end's connection hygiene. The defaults
// protect the server: a half-open or silent client used to pin its
// handler goroutine and session buffers forever, so idle reaping is on
// unless explicitly disabled.
type FrontendOptions struct {
	// IdleTimeout bounds how long a session may sit between frames
	// before the server reaps the connection (default 2m; negative
	// disables reaping).
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write, so a client that stops
	// reading cannot wedge a handler on a full socket buffer (default
	// 30s; negative disables).
	WriteTimeout time.Duration
}

func (o *FrontendOptions) applyDefaults() {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
}

// Frontend exposes a Server over TCP (or any net.Listener). Each accepted
// connection is one independent client session; the shared Server behind
// it is what makes cross-client caching and deduplication happen.
type Frontend struct {
	srv  *Server
	ln   net.Listener
	opts FrontendOptions
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts accepting wire-protocol sessions on the listener, serving
// them from srv with default connection hygiene. It returns immediately;
// Close shuts the front-end down. The Frontend does not own srv —
// closing the Frontend leaves the Server (and its in-process callers)
// running.
func Serve(srv *Server, ln net.Listener) *Frontend {
	return ServeOptions(srv, ln, FrontendOptions{})
}

// ServeOptions is Serve with explicit connection-hygiene options.
func ServeOptions(srv *Server, ln net.Listener, opts FrontendOptions) *Frontend {
	opts.applyDefaults()
	f := &Frontend{srv: srv, ln: ln, opts: opts, conns: map[net.Conn]struct{}{}}
	f.wg.Add(1)
	go f.acceptLoop()
	return f
}

// Addr returns the bound listener address (useful with ":0" listeners).
func (f *Frontend) Addr() net.Addr { return f.ln.Addr() }

func (f *Frontend) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.handle(conn)
			f.mu.Lock()
			delete(f.conns, conn)
			f.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops every live session, and waits for the
// handlers to return. The underlying Server is left running.
func (f *Frontend) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	err := f.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
	return err
}

// Drain is the graceful sibling of Close: it stops accepting new
// sessions immediately (connection attempts are refused once the
// listener closes) but gives in-flight sessions up to timeout to finish
// on their own — a KMC client holds its session for the life of its
// run, so draining a serve node means letting attached simulations
// disconnect at their own pace. Sessions still live at the deadline are
// force-closed. It returns the number of sessions that had to be
// forced, so callers can report an imperfect drain while still shutting
// down cleanly.
func (f *Frontend) Drain(timeout time.Duration) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, nil
	}
	f.closed = true
	f.mu.Unlock()
	lnErr := f.ln.Close()

	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
		return 0, lnErr
	case <-time.After(timeout):
	}
	f.mu.Lock()
	conns := make([]net.Conn, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	<-done
	return len(conns), lnErr
}

// handle runs one client session to completion. Every frame read is
// armed with the idle deadline and every reply write with the write
// deadline, so a half-open peer expires instead of pinning the handler
// goroutine and its buffers forever.
func (f *Frontend) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	tb := f.srv.Tables()

	armRead := func() {
		if f.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(f.opts.IdleTimeout))
		}
	}
	armWrite := func() {
		if f.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
		}
	}

	fail := func(kind byte, msg string) {
		armWrite()
		writeFrame(w, errorFrame(kind, msg))
		w.Flush()
	}

	// The session opens with the 18-byte hello declaring the client's
	// geometry and its highest protocol version.
	armRead()
	p, err := readFrame(r, nil, minFrame)
	if err != nil {
		return
	}
	var offered int
	switch {
	case len(p) == 18 && p[0] == opHello2:
		offered = int(p[17])
	case len(p) == 17 && p[0] == opHello:
		offered = 1
	default:
		fail(errGeneric, "expected hello frame")
		return
	}
	if offered < wireVersion {
		fail(errGeneric, fmt.Sprintf("protocol version %d is too old: this server needs version %d or newer", offered, wireVersion))
		return
	}
	a := math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
	rcut := math.Float64frombits(binary.LittleEndian.Uint64(p[9:]))
	if a != tb.A || rcut != tb.Rcut {
		fail(errGeneric, fmt.Sprintf("geometry mismatch: server has a=%v rcut=%v, client sent a=%v rcut=%v", tb.A, tb.Rcut, a, rcut))
		return
	}
	ok := make([]byte, 6)
	ok[0] = opHelloOK2
	binary.LittleEndian.PutUint32(ok[1:], uint32(tb.NAll))
	ok[5] = wireVersion
	armWrite()
	if err := writeFrame(w, ok); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}

	// Post-hello frames are bounded by the eval frame, and every request
	// and reply of the session goes through one buffer each.
	limit := evalFrameLen(tb)
	req := make([]byte, limit)
	reply := make([]byte, 0, resultLen)
	for {
		armRead()
		p, err := readFrame(r, req, limit)
		if err != nil {
			return // disconnect, idle expiry, or oversized frame
		}
		switch p[0] {
		case opEval:
			if len(p) != limit {
				fail(errGeneric, fmt.Sprintf("eval frame of %d bytes, want %d", len(p), limit))
				return
			}
			tctx := telemetry.DecodeContext(p[1:])
			key := p[1+telemetry.ContextSize:]
			if err := tb.CheckKey(key); err != nil {
				fail(errGeneric, err.Error())
				return
			}
			res, err := f.srv.serve(key, nil, tctx)
			if err != nil {
				kind := byte(errGeneric)
				var ce *fault.CorruptionError
				if errors.As(err, &ce) {
					kind = errCorruption
				}
				fail(kind, err.Error())
				if kind == errGeneric {
					return // server closed or malformed: end the session
				}
				continue // corruption: report, let the client decide
			}
			armWrite()
			if err := writeFrame(w, appendResult(reply[:0], res)); err != nil {
				return
			}
		case opStats:
			js, err := json.Marshal(f.srv.Stats())
			if err != nil {
				fail(errGeneric, err.Error())
				return
			}
			out := make([]byte, 1+len(js))
			out[0] = opStatsOK
			copy(out[1:], js)
			armWrite()
			if err := writeFrame(w, out); err != nil {
				return
			}
		default:
			fail(errGeneric, fmt.Sprintf("unknown opcode %#x", p[0]))
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// --- Client side --------------------------------------------------------

// DialConfig tunes a wire client beyond the required tables. The zero
// value reproduces the pre-fleet behaviour: plain net.Dial, no
// deadlines.
type DialConfig struct {
	// Timeout bounds every wire interaction — the dial, the hello
	// exchange, and each later request/reply round trip. On expiry the
	// request fails with a *fault.TransportError and the session is
	// marked broken (a late reply would desynchronise the
	// request/reply stream). Zero means no deadline.
	Timeout time.Duration
	// Dialer replaces the TCP dial — the hook through which tests
	// interpose ConnChaos faults. Nil means net.Dial("tcp", addr).
	Dialer func(addr string) (net.Conn, error)
}

// Client is a wire-protocol connection to a tkmc-serve front-end. It
// implements kmc.Model, so an engine can be pointed at a remote
// evaluation service exactly as it would at an in-process potential. One
// Client serializes its requests (the session is a simple request/reply
// stream); open several Clients for concurrency — the server shares one
// cache across all of them and evaluates an environment several of them
// miss at once only once.
//
// Any transport failure — including a deadline expiry — marks the
// session broken: the request/reply framing can no longer be trusted,
// so every later call fails fast with a *fault.TransportError and the
// owner must redial (the FleetClient does this automatically).
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	tb      *encoding.Tables
	addr    string
	timeout time.Duration
	broken  bool

	// req is the session's eval frame — opcode, trace context, packed
	// key — rewritten in place per request; reply is
	// the buffer every eval reply is read into, grown at most to
	// maxReplyFrame.
	req, reply []byte
}

// Dial connects to a front-end and performs the hello handshake for the
// caller's tables, whose lattice constant and cutoff the hello carries.
// The Client keeps and shares tb — the handshake guarantees it matches
// the server's tables.
func Dial(addr string, tb *encoding.Tables) (*Client, error) {
	return DialConfig{}.Dial(addr, tb)
}

// Dial connects with the config's deadlines and dialer. Transport
// failures — including the handshake timing out — return a
// *fault.TransportError; a refusal by the server (geometry mismatch,
// protocol version too old) returns a plain (non-retryable) error.
func (dc DialConfig) Dial(addr string, tb *encoding.Tables) (*Client, error) {
	var conn net.Conn
	var err error
	switch {
	case dc.Dialer != nil:
		conn, err = dc.Dialer(addr)
	case dc.Timeout > 0:
		conn, err = net.DialTimeout("tcp", addr, dc.Timeout)
	default:
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, &fault.TransportError{Op: "dial", Addr: addr, Err: err}
	}
	c := &Client{
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		tb:      tb,
		addr:    addr,
		timeout: dc.Timeout,
		req:     make([]byte, evalFrameLen(tb)),
		reply:   make([]byte, 0, resultLen),
	}
	c.req[0] = opEval
	c.arm()
	hello := make([]byte, 18)
	hello[0] = opHello2
	binary.LittleEndian.PutUint64(hello[1:], math.Float64bits(tb.A))
	binary.LittleEndian.PutUint64(hello[9:], math.Float64bits(tb.Rcut))
	hello[17] = wireVersion
	if err := writeFrame(c.w, hello); err != nil {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr, Err: err}
	}
	if err := c.w.Flush(); err != nil {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr, Err: err}
	}
	p, err := readFrame(c.r, nil, maxReplyFrame)
	if err != nil {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr, Err: err}
	}
	c.disarm()
	if p[0] == opError {
		conn.Close()
		return nil, fmt.Errorf("evalserve: server refused hello: %s", errorMsg(p))
	}
	if len(p) != 6 || p[0] != opHelloOK2 {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr,
			Err: errors.New("evalserve: malformed hello reply")}
	}
	if p[5] != wireVersion {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr,
			Err: fmt.Errorf("evalserve: server negotiated unusable protocol version %d", p[5])}
	}
	if n := int(binary.LittleEndian.Uint32(p[1:])); n != c.tb.NAll {
		conn.Close()
		return nil, fmt.Errorf("evalserve: server NAll %d != local %d", n, c.tb.NAll)
	}
	return c, nil
}

// arm sets the connection deadline for one wire interaction (no-op
// without a configured timeout).
func (c *Client) arm() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// disarm clears the interaction deadline.
func (c *Client) disarm() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// fail marks the session broken and wraps the failure (mu held).
func (c *Client) fail(op string, err error) *fault.TransportError {
	c.broken = true
	c.conn.Close()
	return &fault.TransportError{Op: op, Addr: c.addr, Err: err}
}

// Tables returns the tables the Client was dialled with (kmc.Model).
func (c *Client) Tables() *encoding.Tables { return c.tb }

// Addr returns the remote endpoint this session was dialed to.
func (c *Client) Addr() string { return c.addr }

// Close ends the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = true
	return c.conn.Close()
}

// roundTrip sends one request payload and reads the reply payload into
// buf's storage under limit, arming the per-request deadline and converting every
// transport failure into a session-breaking typed error (mu held by
// caller).
func (c *Client) roundTrip(op string, payload, buf []byte, limit int) ([]byte, error) {
	if c.broken {
		return nil, &fault.TransportError{Op: op, Addr: c.addr,
			Err: errors.New("evalserve: session broken by an earlier transport failure")}
	}
	c.arm()
	defer c.disarm()
	if err := writeFrame(c.w, payload); err != nil {
		return nil, c.fail(op, err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.fail(op, err)
	}
	p, err := readFrame(c.r, buf, limit)
	if err != nil {
		return nil, c.fail(op, err)
	}
	return p, nil
}

// Evaluate submits one vacancy system and returns the exact f64 result.
// Transport failures (connection loss, deadline expiry, truncated or
// malformed frames) come back as *fault.TransportError — retryable, by
// the idempotency of the content-addressed protocol; corruption reported
// by the server, or a VET that does not pack (a species above Vacancy),
// comes back as *fault.CorruptionError — not retryable.
func (c *Client) Evaluate(vet encoding.VET) (Result, error) {
	return c.EvaluateTraced(vet, telemetry.Context{})
}

// EvaluateTraced is Evaluate carrying a distributed-trace context: a
// valid context rides the eval frame, so the serving node's spans (cache
// hit/miss, slot wait, evaluation time) join the caller's trace.
func (c *Client) EvaluateTraced(vet encoding.VET, tctx telemetry.Context) (Result, error) {
	if len(vet) != c.tb.NAll {
		return Result{}, fmt.Errorf("evalserve: VET length %d, want %d", len(vet), c.tb.NAll)
	}
	var buf [encoding.KeyStack]byte
	key, err := c.tb.PackEnv(buf[:0], vet)
	if err != nil {
		return Result{}, corruptVET(err)
	}
	return c.evaluateKey(key, tctx)
}

// evaluateKey sends a packed key (encoding.PackEnv's output) in the
// session's eval frame and reads the reply into the session's reply
// buffer: a warm request allocates nothing.
func (c *Client) evaluateKey(key []byte, tctx telemetry.Context) (Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tctx.Encode(c.req[1:])
	copy(c.req[1+telemetry.ContextSize:], key)
	p, err := c.roundTrip("eval", c.req, c.reply, maxReplyFrame)
	if err != nil {
		return Result{}, err
	}
	c.reply = p
	if p[0] == opError {
		if len(p) >= 2 && p[1] == errCorruption {
			return Result{}, &fault.CorruptionError{Subsystem: "evalserve", Detail: errorMsg(p)}
		}
		return Result{}, fmt.Errorf("evalserve: server error: %s", errorMsg(p))
	}
	res, err := decodeResult(p)
	if err != nil {
		// A garbled result frame is a transport-integrity failure (e.g.
		// chaos truncation), not a server decision: break the session so
		// the owner redials instead of trusting a desynced stream.
		return Result{}, c.fail("eval", err)
	}
	return res, nil
}

// HopEnergies implements kmc.Model over the wire. Corruption reported by
// the server re-panics as *fault.CorruptionError, preserving engine-layer
// recovery; every other failure — transport loss, deadline expiry, a
// server-side refusal — panics as *fault.TransportError, which the
// engine layers convert into a typed, retryable error for the
// supervisor (instead of the opaque panic this path used to raise).
func (c *Client) HopEnergies(vet encoding.VET) (initial float64, final [8]float64, valid [8]bool) {
	res, err := c.Evaluate(vet)
	if err != nil {
		panic(asEnginePanic(err, c.addr))
	}
	return res.Initial, res.Final, res.Valid
}

// asEnginePanic shapes an evaluation error for the engine recovery
// layers: corruption stays corruption, anything else becomes a typed
// transport failure.
func asEnginePanic(err error, addr string) error {
	var ce *fault.CorruptionError
	if errors.As(err, &ce) {
		return ce
	}
	var te *fault.TransportError
	if errors.As(err, &te) {
		return te
	}
	return &fault.TransportError{Op: "eval", Addr: addr, Err: err}
}

// ServerStats fetches the service counters over the wire.
func (c *Client) ServerStats() (Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.roundTrip("stats", []byte{opStats}, nil, maxStatsFrame)
	if err != nil {
		return Stats{}, err
	}
	if p[0] == opError {
		return Stats{}, fmt.Errorf("evalserve: server error: %s", errorMsg(p))
	}
	if p[0] != opStatsOK {
		return Stats{}, c.fail("stats", errors.New("evalserve: malformed stats reply"))
	}
	var st Stats
	if err := json.Unmarshal(p[1:], &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}
