package evalserve

import (
	"bufio"
	"encoding/binary"
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

// Wire protocol of the evaluation front-end (Serve).
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
	opHello2   = 0x04 // client → server: f64 a, f64 rcut, u8 max protocol version
	opEval     = 0x06 // client → server: 16-byte trace context, packed key
	opResult   = 0x82 // server → client: f64 initial, 8×f64 final, u8 valid mask
	opHelloOK2 = 0x84 // server → client: u32 NAll, u8 session protocol version
	opError    = 0x7f // server → client: u8 kind, message bytes
)

// wireVersion is the one protocol version this build speaks, and so both
// the minimum a server accepts and what a client offers. A hello offering
// more is answered at wireVersion; one offering less (or the version-1
// hello, which had no version byte) is refused with an error frame that
// names the minimum. Version 2 sent one byte per site (opcodes 0x02 and
// 0x05, untraced and traced); version 3 sends the packed key. Opcode
// 0x03, a JSON stats request, is retired too: a session refuses it as an
// unknown opcode.
const wireVersion = 3

// opError kinds.
const (
	errGeneric    = 0x00
	errCorruption = 0x01 // evaluation tripped a corruption tripwire
)

// minFrame bounds every pre-hello frame; after hello the bound is one
// eval frame (evalFrameLen).
const minFrame = 64

// maxReplyFrame bounds every reply a client reads: a result is 74
// bytes and every error the server writes fits well under this, so a
// corrupt length prefix cannot make a session grow its reply buffer past
// it.
const maxReplyFrame = 4 << 10

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

// defaultIdleTimeout bounds how long a Serve session may sit between
// frames before the server reaps the connection, so a half-open or
// silent client cannot pin its handler goroutine and buffers forever.
const defaultIdleTimeout = 2 * time.Minute

// writeTimeout bounds each reply write, so a client that stops reading
// cannot wedge a handler on a full socket buffer.
const writeTimeout = 30 * time.Second

// Frontend exposes a Server over TCP (or any net.Listener). Each accepted
// connection is one independent client session; the shared Server behind
// it is what makes cross-client caching and deduplication happen.
type Frontend struct {
	srv  *Server
	ln   net.Listener
	idle time.Duration
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve starts accepting wire-protocol sessions on the listener, serving
// them from srv and reaping a session idle for defaultIdleTimeout. It
// returns immediately; Close shuts the front-end down. The Frontend does
// not own srv — closing the Frontend leaves the Server (and its
// in-process callers) running.
func Serve(srv *Server, ln net.Listener) *Frontend {
	return serveIdle(srv, ln, defaultIdleTimeout)
}

// serveIdle is Serve with its own idle reap timeout.
func serveIdle(srv *Server, ln net.Listener, idle time.Duration) *Frontend {
	f := &Frontend{srv: srv, ln: ln, idle: idle, conns: map[net.Conn]struct{}{}}
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
		conn.SetReadDeadline(time.Now().Add(f.idle))
	}
	armWrite := func() {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
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

// session is one wire-protocol connection to a Serve front-end: the
// hello, then a request/reply stream of eval and result frames. A
// fleetNode owns it and uses it only under its mutex, which serialises
// the stream.
//
// Any transport failure — including a deadline expiry — marks the
// session broken: the request/reply framing can no longer be trusted,
// so every later request fails fast with a *fault.TransportError and the
// owner must redial.
type session struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	addr    string
	timeout time.Duration
	broken  bool

	// req is the session's eval frame — opcode, trace context, packed
	// key — rewritten in place per request; reply is the buffer every
	// reply is read into, grown at most to maxReplyFrame.
	req, reply []byte
}

// dial connects to a front-end and performs the hello handshake for the
// caller's tables, whose lattice constant and cutoff the hello carries.
// timeout bounds the dial, the hello and each later round trip (zero
// means no deadline); dialer replaces the TCP dial when non-nil.
// Transport failures — including the handshake timing out — return a
// *fault.TransportError; a refusal by the server (geometry mismatch,
// protocol version too old) returns a plain (non-retryable) error.
func dial(addr string, tb *encoding.Tables, timeout time.Duration, dialer func(string) (net.Conn, error)) (*session, error) {
	var conn net.Conn
	var err error
	switch {
	case dialer != nil:
		conn, err = dialer(addr)
	case timeout > 0:
		conn, err = net.DialTimeout("tcp", addr, timeout)
	default:
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, &fault.TransportError{Op: "dial", Addr: addr, Err: err}
	}
	s := &session{
		conn:    conn,
		r:       bufio.NewReader(conn),
		w:       bufio.NewWriter(conn),
		addr:    addr,
		timeout: timeout,
		req:     make([]byte, evalFrameLen(tb)),
		reply:   make([]byte, 0, resultLen),
	}
	s.req[0] = opEval
	s.arm()
	hello := make([]byte, 18)
	hello[0] = opHello2
	binary.LittleEndian.PutUint64(hello[1:], math.Float64bits(tb.A))
	binary.LittleEndian.PutUint64(hello[9:], math.Float64bits(tb.Rcut))
	hello[17] = wireVersion
	if err := writeFrame(s.w, hello); err != nil {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr, Err: err}
	}
	if err := s.w.Flush(); err != nil {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr, Err: err}
	}
	p, err := readFrame(s.r, nil, maxReplyFrame)
	if err != nil {
		conn.Close()
		return nil, &fault.TransportError{Op: "hello", Addr: addr, Err: err}
	}
	s.disarm()
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
	if n := int(binary.LittleEndian.Uint32(p[1:])); n != tb.NAll {
		conn.Close()
		return nil, fmt.Errorf("evalserve: server NAll %d != local %d", n, tb.NAll)
	}
	return s, nil
}

// arm sets the connection deadline for one wire interaction (no-op
// without a timeout).
func (s *session) arm() {
	if s.timeout > 0 {
		s.conn.SetDeadline(time.Now().Add(s.timeout))
	}
}

// disarm clears the interaction deadline.
func (s *session) disarm() {
	if s.timeout > 0 {
		s.conn.SetDeadline(time.Time{})
	}
}

// fail marks the session broken and wraps the failure.
func (s *session) fail(err error) *fault.TransportError {
	s.broken = true
	s.conn.Close()
	return &fault.TransportError{Op: "eval", Addr: s.addr, Err: err}
}

// Close ends the session.
func (s *session) Close() error {
	s.broken = true
	return s.conn.Close()
}

// eval sends one packed key (encoding.PackEnv's output) under tctx in
// the session's eval frame and reads the reply into the session's reply
// buffer: a warm request allocates nothing. Transport failures
// (connection loss, deadline expiry, truncated, oversized or malformed
// frames) come back as *fault.TransportError and break the session —
// retryable, by the idempotency of the content-addressed protocol;
// corruption reported by the server comes back as
// *fault.CorruptionError, which is not.
func (s *session) eval(key []byte, tctx telemetry.Context) (Result, error) {
	if s.broken {
		return Result{}, &fault.TransportError{Op: "eval", Addr: s.addr,
			Err: errors.New("evalserve: session broken by an earlier transport failure")}
	}
	tctx.Encode(s.req[1:])
	copy(s.req[1+telemetry.ContextSize:], key)
	s.arm()
	defer s.disarm()
	if err := writeFrame(s.w, s.req); err != nil {
		return Result{}, s.fail(err)
	}
	if err := s.w.Flush(); err != nil {
		return Result{}, s.fail(err)
	}
	p, err := readFrame(s.r, s.reply, maxReplyFrame)
	if err != nil {
		return Result{}, s.fail(err)
	}
	s.reply = p
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
		return Result{}, s.fail(err)
	}
	return res, nil
}
