package evalserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tensorkmc/internal/encoding"
	"tensorkmc/internal/fault"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

// startFrontend boots a Server plus TCP front-end on a loopback port.
func startFrontend(t *testing.T, opts Options, seed uint64) (*Frontend, *nnp.Potential) {
	t.Helper()
	pot, tb := smallPotential(seed)
	srv := New(NewFusionBackend(pot, tb, F64), opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := Serve(srv, ln)
	t.Cleanup(func() {
		fe.Close()
		srv.Close()
	})
	return fe, pot
}

// hello2Payload is the 18-byte hello for the short-cutoff test geometry,
// offering the given protocol version.
func hello2Payload(ver byte) []byte {
	p := make([]byte, 18)
	p[0] = opHello2
	binary.LittleEndian.PutUint64(p[1:], math.Float64bits(units.LatticeConstantFe))
	binary.LittleEndian.PutUint64(p[9:], math.Float64bits(units.CutoffShort))
	p[17] = ver
	return p
}

// sendFrame writes one frame to a raw connection and flushes it.
func sendFrame(conn io.Writer, payload []byte) error {
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, payload); err != nil {
		return err
	}
	return w.Flush()
}

// opRetiredStats is the opcode of the retired JSON stats request. A
// session refuses it: before the hello as a missing hello, after it as
// an unknown opcode.
const opRetiredStats = 0x03

// dialTest opens a session to addr for tb with a 5 s deadline.
func dialTest(t *testing.T, addr string, tb *encoding.Tables) *session {
	t.Helper()
	s, err := dial(addr, tb, 5*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// evalVET packs vet for tb and sends it over s.
func evalVET(s *session, tb *encoding.Tables, vet encoding.VET, tctx telemetry.Context) (Result, error) {
	key, err := tb.PackEnv(nil, vet)
	if err != nil {
		return Result{}, err
	}
	return s.eval(key, tctx)
}

// legacyHelloPayload is the retired 17-byte version-1 hello: the same
// geometry, no version byte.
func legacyHelloPayload() []byte {
	p := hello2Payload(0)[:17]
	p[0] = opHello
	return p
}

// TestWireRoundTrip: energies served over TCP must be bit-identical to
// direct evaluation, and the handshake must reconstruct matching tables.
func TestWireRoundTrip(t *testing.T) {
	fe, pot := startFrontend(t, Options{Capacity: 128}, 20)
	tb := shortTables()
	cl := dialTest(t, fe.Addr().String(), tb)

	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 6, 21)
	for pass := 0; pass < 2; pass++ {
		for i, vet := range vets {
			got, err := evalVET(cl, tb, vet, telemetry.Context{})
			if err != nil {
				t.Fatal(err)
			}
			wi, wf, wv := direct.HopEnergies(vet)
			if got.Initial != wi || got.Final != wf || got.Valid != wv {
				t.Fatalf("pass %d system %d: wire (%v) != direct (%v)", pass, i, got.Initial, wi)
			}
		}
	}
	if st := fe.srv.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("server saw no hits or no misses: %+v", st)
	}
}

// TestWireConcurrentClients is the acceptance check: ≥8 concurrent TCP
// clients against one front-end, every reply bit-identical, no
// environment evaluated twice.
func TestWireConcurrentClients(t *testing.T) {
	fe, pot := startFrontend(t, Options{Capacity: 256, Workers: 2}, 22)

	// The workload is a small environment set so the clients overlap
	// heavily.
	tb := shortTables()
	direct := nnp.NewLatticeEvaluator(pot, tb)
	vets := sampleVETs(t, tb, 10, 23)
	want := make([]Result, len(vets))
	for i, vet := range vets {
		want[i].Initial, want[i].Final, want[i].Valid = direct.HopEnergies(vet)
	}

	const clients = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := dial(fe.Addr().String(), tb, 5*time.Second, nil)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(vets)
				res, err := evalVET(cl, tb, vets[i], telemetry.Context{})
				if err != nil {
					errs <- err
					return
				}
				if res != want[i] {
					errs <- errWireMismatch
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := fe.srv.Stats()
	if got := st.Hits + st.Misses; got != clients*rounds {
		t.Fatalf("lookup count %d, want %d", got, clients*rounds)
	}
	if st.Batches > int64(len(vets)) {
		t.Fatalf("%d evaluations for %d distinct environments", st.Batches, len(vets))
	}
}

var errWireMismatch = &wireMismatchError{}

type wireMismatchError struct{}

func (*wireMismatchError) Error() string { return "wire energies diverged from direct evaluation" }

// TestWireRejectsGeometryMismatch: a hello with the wrong lattice constant
// must be refused during the handshake.
func TestWireRejectsGeometryMismatch(t *testing.T) {
	fe, _ := startFrontend(t, Options{}, 24)
	if _, err := dial(fe.Addr().String(), encoding.New(units.LatticeConstantFe*1.01, units.CutoffShort), 5*time.Second, nil); err == nil {
		t.Fatal("mismatched geometry accepted")
	} else if !strings.Contains(err.Error(), "geometry mismatch") {
		t.Fatalf("unexpected refusal: %v", err)
	}
}

// TestWireRejectsOversizedFrame: a frame beyond the session bound must
// drop the connection instead of allocating — the bounded-memory check.
func TestWireRejectsOversizedFrame(t *testing.T) {
	fe, _ := startFrontend(t, Options{}, 25)
	conn, err := net.Dial("tcp", fe.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30) // claim a 1 GiB frame
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		// The server may write nothing before closing; any read success
		// here means it kept the session alive, which it must not.
		t.Fatal("server kept an oversized-frame session open")
	}
}

// TestWireRejectsEvalBeforeHello: the protocol requires the handshake
// before any evaluation.
func TestWireRejectsEvalBeforeHello(t *testing.T) {
	fe, _ := startFrontend(t, Options{}, 26)
	conn, err := net.Dial("tcp", fe.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A one-byte request, sent before hello.
	if err := sendFrame(conn, []byte{opRetiredStats}); err != nil {
		t.Fatal(err)
	}
	p, err := readFrame(conn, nil, maxReplyFrame)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != opError {
		t.Fatalf("pre-hello request answered with opcode %#x", p[0])
	}
}

// TestWireRejectsOutOfRangeSpecies: an eval frame whose packed key no
// VET packs to — a 2-bit slot holding 3, a set bit past the last site,
// or a key one byte short — is answered with an error frame naming the
// fault (the site, for a slot) and ends the session; a key one byte long
// makes the frame oversized, which ends the session unanswered. The
// retired stats opcode 0x03 after the hello draws an error frame naming
// the unknown opcode and ends the session too. Nothing is evaluated,
// looked up or cached.
func TestWireRejectsOutOfRangeSpecies(t *testing.T) {
	tb := shortTables()
	if tb.NAll%4 == 0 {
		t.Fatalf("NAll = %d leaves no padding bits in the last key byte", tb.NAll)
	}
	srv := New(goldenBackend{tb: tb}, Options{Capacity: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := Serve(srv, ln)
	defer func() { fe.Close(); srv.Close() }()

	// evalWith is an eval frame carrying the zero key after mut.
	evalWith := func(mut func(key []byte) []byte) []byte {
		eval := make([]byte, 1+telemetry.ContextSize, evalFrameLen(tb)+1)
		eval[0] = opEval
		return append(eval, mut(make([]byte, tb.KeyLen()))...)
	}
	slot := func(site int) []byte {
		return evalWith(func(key []byte) []byte { key[site/4] |= 3 << (2 * (site % 4)); return key })
	}
	last := tb.NAll - 1
	for _, bad := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"3 at site 17", slot(17), "site 17 "},
		{"3 at site 0", slot(0), "site 0 "},
		{"3 at the last site", slot(last), fmt.Sprintf("site %d ", last)},
		{"padding bit", evalWith(func(key []byte) []byte { key[len(key)-1] |= 0x80; return key }), fmt.Sprintf("past site %d", last)},
		{"short key", evalWith(func(key []byte) []byte { return key[:len(key)-1] }), "want"},
		{"long key", evalWith(func(key []byte) []byte { return append(key, 0) }), ""},
		{"retired stats opcode", []byte{opRetiredStats}, "unknown opcode 0x3"},
	} {
		conn, err := net.Dial("tcp", fe.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := sendFrame(conn, hello2Payload(wireVersion)); err != nil {
			t.Fatal(err)
		}
		if p, err := readFrame(conn, nil, minFrame); err != nil || p[0] != opHelloOK2 {
			t.Fatalf("handshake: %v %x", err, p)
		}
		if err := sendFrame(conn, bad.frame); err != nil {
			t.Fatal(err)
		}
		p, err := readFrame(conn, nil, maxReplyFrame)
		if bad.want == "" {
			if err == nil {
				t.Fatalf("%s: answered %x, want the session dropped", bad.name, p)
			}
			conn.Close()
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", bad.name, err)
		}
		if p[0] != opError {
			t.Fatalf("%s: answered with opcode %#x", bad.name, p[0])
		}
		if !strings.Contains(string(p[2:]), bad.want) {
			t.Fatalf("%s: refusal %q does not name %q", bad.name, p[2:], bad.want)
		}
		if _, err := readFrame(conn, nil, maxReplyFrame); err == nil {
			t.Fatalf("%s: session stayed open after the refusal", bad.name)
		}
		conn.Close()
	}
	if st := srv.Stats(); st.Hits+st.Misses+st.Batches+int64(st.Entries) != 0 {
		t.Fatalf("refused frames reached the server: %s", st)
	}
}

// TestWireShortErrorFrame: an error frame too short to carry its kind
// byte, in answer to an eval, is a server error without a message — the
// client must not slice past its end.
func TestWireShortErrorFrame(t *testing.T) {
	tb := shortTables()
	cc, sc := net.Pipe()
	go func() { // fake server: handshake, then a 1-byte error frame
		sc.SetDeadline(time.Now().Add(5 * time.Second))
		readFrame(sc, nil, minFrame)
		ok := []byte{opHelloOK2, 0, 0, 0, 0, wireVersion}
		binary.LittleEndian.PutUint32(ok[1:], uint32(tb.NAll))
		sendFrame(sc, ok)
		readFrame(sc, nil, evalFrameLen(tb))
		sendFrame(sc, []byte{opError})
		io.Copy(io.Discard, sc)
	}()
	defer sc.Close()
	cl, err := dial("pipe", tb, 5*time.Second, func(string) (net.Conn, error) { return cc, nil })
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cl.Close()
	if _, err := evalVET(cl, tb, sampleVETs(t, tb, 1, 64)[0], telemetry.Context{}); err == nil || !strings.Contains(err.Error(), "server error") {
		t.Fatalf("1-byte error frame: %v, want a server error", err)
	}
}

// TestWireReplyBound: an eval reply is read under maxReplyFrame, so a
// server that answers an eval with a 1 MiB length prefix breaks the
// session with a typed transport error instead of growing the session's
// reply buffer to match.
func TestWireReplyBound(t *testing.T) {
	tb := shortTables()
	cc, sc := net.Pipe()
	go func() { // fake server: handshake, then a huge reply prefix
		sc.SetDeadline(time.Now().Add(5 * time.Second))
		readFrame(sc, nil, minFrame)
		ok := []byte{opHelloOK2, 0, 0, 0, 0, wireVersion}
		binary.LittleEndian.PutUint32(ok[1:], uint32(tb.NAll))
		sendFrame(sc, ok)
		readFrame(sc, nil, evalFrameLen(tb))
		sc.Write([]byte{0, 0, 0x10, 0, opResult}) // 1 MiB, then nothing
		io.Copy(io.Discard, sc)
	}()
	defer sc.Close()
	cl, err := dial("pipe", tb, 5*time.Second, func(string) (net.Conn, error) { return cc, nil })
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cl.Close()

	vet := sampleVETs(t, tb, 1, 63)[0]
	_, err = evalVET(cl, tb, vet, telemetry.Context{})
	var te *fault.TransportError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("1 MiB eval reply: %v, want a transport error naming the limit", err)
	}
	if cap(cl.reply) > maxReplyFrame {
		t.Fatalf("reply buffer grew to %d bytes", cap(cl.reply))
	}
	if _, err := evalVET(cl, tb, vet, telemetry.Context{}); !errors.As(err, &te) {
		t.Fatalf("request after the oversized reply: %v, want the broken session's transport error", err)
	}
}

// goldenBackend answers every system with one fixed result, so the bytes
// a session carries depend on nothing but the wire format.
type goldenBackend struct {
	tb  *encoding.Tables
	res Result
}

func (g goldenBackend) Tables() *encoding.Tables { return g.tb }

func (g goldenBackend) EvaluateBatch(vets []encoding.VET) []Result {
	out := make([]Result, len(vets))
	for i := range out {
		out[i] = g.res
	}
	return out
}

// recConn records every byte a session sends and receives.
type recConn struct {
	net.Conn
	sent, recv []byte
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent = append(c.sent, p[:n]...)
	return n, err
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv = append(c.recv, p[:n]...)
	return n, err
}

// TestWireFrameEncoding pins the wire format to literal bytes: what the
// client session and Frontend.handle put on a socket for every frame of a session
// (length prefix included), and what the result and error encoders
// produce. A refactor that moves one byte fails here. The geometry
// (a = 2.87, rcut = 1.5: the vacancy and its eight first neighbours,
// NAll = 9) keeps an eval frame short enough to write out.
func TestWireFrameEncoding(t *testing.T) {
	res := Result{Initial: math.Copysign(0, -1)}
	res.Final[0] = 1.0 / 3.0
	res.Final[7] = -2.5e-17
	res.Valid[0], res.Valid[7] = true, true
	const resultHex = "82" + // opResult
		"0000000000000080" + // initial: -0
		"555555555555d53f" + // final[0]: 1/3
		"0000000000000000 0000000000000000 0000000000000000" +
		"0000000000000000 0000000000000000 0000000000000000" +
		"bc89d897b2d27cbc" + // final[7]: -2.5e-17
		"81" // valid mask: directions 0 and 7

	got, err := decodeResult(appendResult(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Initial) != math.Float64bits(res.Initial) || got.Final != res.Final || got.Valid != res.Valid {
		t.Fatalf("result frame round-trip: %+v != %+v", got, res)
	}

	tb := encoding.New(units.LatticeConstantFe, 1.5)
	srv := New(goldenBackend{tb: tb, res: res}, Options{Capacity: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := Serve(srv, ln)
	defer func() { fe.Close(); srv.Close() }()

	// One recorded session: hello, an untraced eval, a traced eval.
	var rec *recConn
	cl, err := dial(fe.Addr().String(), tb, 0, func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		rec = &recConn{Conn: conn}
		return rec, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	vet := encoding.VET{2, 0, 1, 0, 0, 0, 0, 0, 1} // vacancy, then Fe/Cu neighbours
	if _, err := evalVET(cl, tb, vet, telemetry.Context{}); err != nil {
		t.Fatal(err)
	}
	if _, err := evalVET(cl, tb, vet, telemetry.Context{Trace: 0xfeedc0dedeadbeef, Span: 0x0123456789abcdef}); err != nil {
		t.Fatal(err)
	}

	// A second, raw session: a request before the hello draws an error
	// frame.
	raw, err := net.Dial("tcp", fe.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(5 * time.Second))
	if err := sendFrame(raw, []byte{opRetiredStats}); err != nil {
		t.Fatal(err)
	}
	refusal, err := io.ReadAll(raw) // the server closes after refusing
	if err != nil {
		t.Fatal(err)
	}

	const (
		hello2   = "12000000 04 f6285c8fc2f50640 000000000000f83f 03"     // a, rcut, max version
		eval     = "14000000 06 0000000000000000 0000000000000000 120001" // untraced; key: sites 0-3 → 12, 4-7 → 00, 8 → 01
		traced   = "14000000 06 efbeaddedec0edfe efcdab8967452301 120001" // trace ID, span ID, packed key
		helloOK2 = "06000000 84 09000000 03"                              // NAll, negotiated version
	)
	golden := []struct {
		name string
		got  []byte
		want string // hex; spaces are ignored
	}{
		{"client session: hello2, eval, traced eval", rec.sent, hello2 + eval + traced},
		{"server session: helloOK2, result, result", rec.recv, helloOK2 + "4a000000" + resultHex + "4a000000" + resultHex},
		{"server refusal: error", refusal, "16000000 7f 00" + hex.EncodeToString([]byte("expected hello frame"))},
		{"appendResult", appendResult(nil, res), resultHex},
		{"errorFrame", errorFrame(errCorruption, "tripwire"), "7f 01 7472697077697265"},
	}
	for _, g := range golden {
		want, err := hex.DecodeString(strings.ReplaceAll(g.want, " ", ""))
		if err != nil {
			t.Fatalf("%s: bad golden literal: %v", g.name, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s:\n got  %x\n want %x", g.name, g.got, want)
		}
	}
}

// TestWireIdleReap: a session that goes silent must be reaped by the
// server's idle deadline — the connection closes instead of pinning a
// handler goroutine forever.
func TestWireIdleReap(t *testing.T) {
	pot, tb := smallPotential(60)
	srv := New(NewFusionBackend(pot, tb, F64), Options{Capacity: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := serveIdle(srv, ln, 50*time.Millisecond)
	t.Cleanup(func() { fe.Close(); srv.Close() })

	cl := dialTest(t, ln.Addr().String(), tb)
	// Go silent: the server must close the session within its idle
	// budget, which the next request observes as a transport error.
	time.Sleep(300 * time.Millisecond)
	vets := sampleVETs(t, tb, 1, 61)
	if _, err := evalVET(cl, tb, vets[0], telemetry.Context{}); err == nil {
		t.Fatal("request on a reaped session succeeded")
	} else {
		var te *fault.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("reaped session error not typed: %v", err)
		}
	}
}

// TestWireClientTimeout: a server that accepts the session but never
// answers a request must trip the client's deadline — a typed, prompt
// transport error, and a broken session that fails fast afterwards.
func TestWireClientTimeout(t *testing.T) {
	tb := encoding.New(units.LatticeConstantFe, units.CutoffShort)
	cc, sc := net.Pipe()
	go func() { // fake server: handshake, then silence
		sc.SetDeadline(time.Now().Add(5 * time.Second))
		readFrame(sc, nil, minFrame)
		ok := []byte{opHelloOK2, 0, 0, 0, 0, wireVersion}
		binary.LittleEndian.PutUint32(ok[1:], uint32(tb.NAll))
		w := bufio.NewWriter(sc)
		writeFrame(w, ok)
		w.Flush()
		io.Copy(io.Discard, sc) // swallow the request, never reply
	}()
	cl, err := dial("pipe", tb, 100*time.Millisecond, func(string) (net.Conn, error) { return cc, nil })
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cl.Close()

	vets := sampleVETs(t, tb, 1, 62)
	start := time.Now()
	_, err = evalVET(cl, tb, vets[0], telemetry.Context{})
	if err == nil {
		t.Fatal("request against a silent server succeeded")
	}
	var te *fault.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("timeout error not typed: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
	// The session is broken: the next call must fail fast, not hang.
	start = time.Now()
	if _, err := evalVET(cl, tb, vets[0], telemetry.Context{}); err == nil {
		t.Fatal("request on a broken session succeeded")
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("broken session did not fail fast (%v)", d)
	}
}
