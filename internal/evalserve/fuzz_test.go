package evalserve

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"tensorkmc/internal/telemetry"
)

// frameBytes wraps a payload in the length-prefixed wire framing.
func frameBytes(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// fuzzFrontend lazily boots one shared front-end for the server-side
// dispatch path (the handshake geometry gates real evaluation, so the
// backend is almost never exercised by fuzz inputs).
var fuzzFrontend struct {
	once sync.Once
	addr string
}

func fuzzServerAddr(t testing.TB) string {
	fuzzFrontend.once.Do(func() {
		pot, tb := smallPotential(50)
		srv := New(NewFusionBackend(pot, tb, F64), Options{Capacity: 64})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveIdle(srv, ln, 2*time.Second)
		fuzzFrontend.addr = ln.Addr().String()
	})
	return fuzzFrontend.addr
}

// FuzzWireFrame throws arbitrary bytes at every wire decode path — the
// raw frame reader, the result decoder, the server's session loop and
// the client's handshake — asserting none of them panic or allocate
// beyond the frame limits. Malformed input must always surface as an
// error (or a reaped connection), never a crash.
func FuzzWireFrame(f *testing.F) {
	// Valid frames of every opcode, so mutation starts near the format:
	// the 18-byte hello (trailing version byte; 0, 1, 2 and 0xff probe
	// the refuse and clamp paths), the retired 17-byte version-1 hello the
	// server must refuse, the 6-byte acknowledgement, and eval frames —
	// trace context, then packed key — untraced, traced and torn.
	for _, ver := range []byte{wireVersion, 0, 1, 2, 0xff} {
		f.Add(frameBytes(hello2Payload(ver)))
	}
	f.Add(frameBytes(legacyHelloPayload()))
	f.Add(frameBytes([]byte{opRetiredStats}))
	f.Add(frameBytes(appendResult(nil, Result{Initial: 1.5, Valid: [8]bool{true}})))
	f.Add(frameBytes(errorFrame(errGeneric, "boom")))
	f.Add(frameBytes(errorFrame(errCorruption, "tripwire")))
	f.Add(frameBytes([]byte{opError})) // no kind byte: an error without a message, not a panic
	tb := shortTables()
	eval := make([]byte, evalFrameLen(tb))
	eval[0], eval[1+telemetry.ContextSize] = opEval, 0x12 // vacancy, Fe, Cu, Fe
	traced := bytes.Clone(eval)
	telemetry.Context{Trace: 0xfeedc0dedeadbeef, Span: 0x0123456789abcdef}.Encode(traced[1:])
	f.Add(frameBytes(eval))
	f.Add(frameBytes(traced))
	f.Add(frameBytes(traced[:1+telemetry.ContextSize/2])) // torn inside the trace context
	f.Add(frameBytes([]byte{opHelloOK2, 0, 0, 0, 0, wireVersion}))
	f.Add(frameBytes([]byte{opHelloOK2, 0, 0, 0, 0, 0xff}))
	f.Add(append(frameBytes(hello2Payload(wireVersion)), frameBytes([]byte{opRetiredStats})...))
	f.Add(append(frameBytes(hello2Payload(wireVersion)), frameBytes(traced)...))
	f.Add([]byte{0, 0, 0, 0})                // empty frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // oversized length prefix
	f.Add([]byte{4, 0, 0, 0, 1})             // truncated payload
	// A handshake, then an eval whose site 5 holds 3, above Vacancy: the
	// session must refuse it by site and evaluate nothing.
	badEval := bytes.Clone(eval)
	badEval[1+telemetry.ContextSize+1] = 3 << 2
	f.Add(append(frameBytes(hello2Payload(wireVersion)), frameBytes(badEval)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw frame reader at both session limits.
		if p, err := readFrame(bytes.NewReader(data), nil, minFrame); err == nil && len(p) > minFrame {
			t.Fatalf("readFrame returned %d bytes past its %d limit", len(p), minFrame)
		}
		if p, err := readFrame(bytes.NewReader(data), nil, len(eval)); err == nil && len(p) > len(eval) {
			t.Fatalf("readFrame returned %d bytes past its %d limit", len(p), len(eval))
		}
		// Into a reused buffer, as a session reads: the bound still holds.
		if p, err := readFrame(bytes.NewReader(data), make([]byte, 8), maxReplyFrame); err == nil && len(p) > maxReplyFrame {
			t.Fatalf("readFrame returned %d bytes past its %d limit", len(p), maxReplyFrame)
		}
		// Result decoder.
		decodeResult(data)

		// Server dispatch: the bytes become a client session. The server
		// must reply, error out or reap — never crash (a crash here takes
		// the fuzz process down, which is the assertion).
		conn, err := net.Dial("tcp", fuzzServerAddr(t))
		if err != nil {
			t.Skipf("dial fuzz server: %v", err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		conn.Write(data)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite() // FIN: the server sees EOF and ends the session fast
		}
		drain := make([]byte, 4096)
		for {
			if _, err := conn.Read(drain); err != nil {
				break
			}
		}
		conn.Close()

		// Client handshake decode: a fake server answers the hello with
		// the fuzz bytes verbatim. dial must return an error or a session,
		// never panic.
		cc, sc := net.Pipe()
		go func() {
			sc.SetDeadline(time.Now().Add(2 * time.Second))
			readFrame(sc, nil, minFrame) // consume the client's hello
			sc.Write(data)
			sc.Close()
		}()
		if cl, err := dial("pipe", tb, time.Second, func(string) (net.Conn, error) { return cc, nil }); err == nil {
			cl.Close()
		}
		sc.Close()
	})
}
