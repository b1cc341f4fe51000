package evalserve

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tensorkmc/internal/nnp"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

// TestWireProtocolNegotiation pins the handshake: a dialled session
// carries trace contexts to the server, a hello offering a newer version
// is answered at this build's, and a hello older than the floor — the
// version-1 frame, or a hello2 offering less than 3, the byte-per-site
// version 2 included — is answered with an error frame naming the
// minimum version, never a session.
func TestWireProtocolNegotiation(t *testing.T) {
	set := telemetry.NewSet()
	pot, tb := smallPotential(60)
	srv := New(NewFusionBackend(pot, tb, F64), Options{Capacity: 64, Telemetry: set})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := Serve(srv, ln)
	defer func() { fe.Close(); srv.Close() }()
	addr := fe.Addr().String()

	cl := dialTest(t, addr, tb)

	// A traced request lands a serve span whose parent is the client's
	// span.
	ctx := telemetry.Context{Trace: 0xabc123, Span: 0xdef456}
	if _, err := evalVET(cl, tb, sampleVETs(t, tb, 1, 61)[0], ctx); err != nil {
		t.Fatal(err)
	}
	var serveEv telemetry.Event
	serves := 0
	for _, e := range set.Events().Events() {
		if e.Type == telemetry.SpanEventType && strings.HasPrefix(e.Msg, "serve") {
			serveEv = e
			serves++
		}
	}
	if serves != 1 {
		t.Fatalf("traced request produced %d serve spans, want 1", serves)
	}
	if serveEv.Trace != telemetry.ID(ctx.Trace) || serveEv.Parent != telemetry.ID(ctx.Span) {
		t.Fatalf("serve span lineage = trace %s parent %s, want trace %s parent %s",
			serveEv.Trace, serveEv.Parent, telemetry.ID(ctx.Trace), telemetry.ID(ctx.Span))
	}

	for _, c := range []struct {
		name   string
		hello  []byte
		refuse bool
	}{
		{"hello2 offering a newer version", hello2Payload(0xff), false},
		{"version-1 hello", legacyHelloPayload(), true},
		{"hello2 offering version 2", hello2Payload(2), true},
		{"hello2 offering version 1", hello2Payload(1), true},
		{"hello2 offering version 0", hello2Payload(0), true},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := sendFrame(conn, c.hello); err != nil {
			t.Fatal(err)
		}
		p, err := readFrame(conn, nil, maxReplyFrame)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		switch {
		case c.refuse && (p[0] != opError || !strings.Contains(string(p[2:]), "needs version 3")):
			t.Errorf("%s: answered %q, want an error frame naming the minimum version", c.name, p)
		case !c.refuse && (len(p) != 6 || p[0] != opHelloOK2 || p[5] != wireVersion):
			t.Errorf("%s: answered %q, want a version-%d session", c.name, p, wireVersion)
		}
	}
}

// tracedFleet boots n nodes, each with its own telemetry set (its own
// process journal, as in production), plus a traced fleet client.
func tracedFleet(t *testing.T, n int, seed uint64) ([]*Frontend, []*telemetry.Set, []string, *telemetry.Set, *FleetClient, *nnp.Potential) {
	t.Helper()
	fes := make([]*Frontend, n)
	sets := make([]*telemetry.Set, n)
	addrs := make([]string, n)
	var pot *nnp.Potential
	for i := range fes {
		sets[i] = telemetry.NewSet()
		p, tb := smallPotential(seed)
		srv := New(NewFusionBackend(p, tb, F64), Options{Capacity: 256, Telemetry: sets[i]})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fes[i] = Serve(srv, ln)
		addrs[i] = ln.Addr().String()
		pot = p
		idx := i
		t.Cleanup(func() { fes[idx].Close(); srv.Close() })
	}
	clientSet := telemetry.NewSet()
	opts := quietFleet()
	opts.Retries = 1
	opts.Telemetry = clientSet
	fc, err := DialFleet(addrs, units.LatticeConstantFe, units.CutoffShort, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	return fes, sets, addrs, clientSet, fc, pot
}

// TestFleetTraceFailoverAssembled is the acceptance chaos check: one
// traced request stream through a 3-node fleet, a node killed mid-
// stream, then `telemetry.Collect` + `Assemble` over every process's
// flushed journal must produce one tree holding the client's eval spans
// with an explicit failover leg AND the surviving nodes' serve spans
// nested under the eval spans that triggered them.
func TestFleetTraceFailoverAssembled(t *testing.T) {
	fes, sets, addrs, clientSet, fc, _ := tracedFleet(t, 3, 63)

	tb := fc.Tables()
	// The victim must own at least one sampled key, or the kill would
	// never be observed.
	victim := 1
	vets := sampleOwned(t, fc, addrs[victim], sampleVETs(t, tb, 10, 64))

	// The "segment": one root context, one segment span, per-request eval
	// spans underneath — exactly what core.runChunk sets up.
	root := telemetry.NewTrace()
	seg := clientSet.Trace().PhaseAt(telemetry.PhaseRun, telemetry.PhaseSegment).StartUnder(root)
	fc.SetTrace(seg.Context())

	for _, vet := range vets {
		fc.HopEnergies(vet)
	}
	fes[victim].Close() // node dies mid-traced-stream
	for _, vet := range vets {
		fc.HopEnergies(vet)
	}
	fc.SetTrace(telemetry.Context{})
	seg.EndMsg("")

	if fc.Stats().Failovers == 0 {
		t.Fatal("kill produced no failovers — the chaos premise failed")
	}

	// Flush every process journal, exactly as the real deployment does on
	// exit, and assemble the trace from the files.
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "client.jsonl")}
	if err := clientSet.Events().FlushFile(paths[0]); err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		p := filepath.Join(dir, "node"+string(rune('0'+i))+".jsonl")
		if err := set.Events().FlushFile(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	recs, err := telemetry.Collect(root.Trace, paths)
	if err != nil {
		t.Fatal(err)
	}
	tree := telemetry.Assemble(root.Trace, recs)
	if tree.Spans() < 3 {
		t.Fatalf("assembled only %d spans", tree.Spans())
	}

	// Walk the tree: the failover leg and a cross-process serve span. A
	// failover event names the replica the request moved TO; the killed
	// node shows up as the pick that preceded it under the same eval
	// span, so assert an eval span carrying both.
	var sawFailoverLeg, sawServeUnderEval bool
	var walk func(n *telemetry.Node, underEval bool)
	walk = func(n *telemetry.Node, underEval bool) {
		if strings.HasPrefix(n.Name, "eval") {
			pickedVictim, failedOver := false, false
			for _, c := range n.Children {
				if strings.HasPrefix(c.Name, "pick node="+addrs[victim]) {
					pickedVictim = true
				}
				if strings.HasPrefix(c.Name, "failover node=") {
					failedOver = true
				}
			}
			if pickedVictim && failedOver {
				sawFailoverLeg = true
			}
		}
		if underEval && strings.HasPrefix(n.Name, "serve") {
			sawServeUnderEval = true
		}
		for _, c := range n.Children {
			walk(c, underEval || strings.HasPrefix(n.Name, "eval"))
		}
	}
	walk(tree, false)
	if !sawFailoverLeg {
		var sb strings.Builder
		tree.Write(&sb)
		t.Fatalf("assembled trace has no failover leg for the killed node:\n%s", sb.String())
	}
	if !sawServeUnderEval {
		var sb strings.Builder
		tree.Write(&sb)
		t.Fatalf("no serve span nested under an eval span — the context did not cross the wire:\n%s", sb.String())
	}

	// The segment span roots the tree (not an orphan).
	if len(tree.Children) == 0 || !strings.HasPrefix(tree.Children[0].Name, "segment") {
		var sb strings.Builder
		tree.Write(&sb)
		t.Fatalf("segment span is not the tree root:\n%s", sb.String())
	}
	for _, c := range tree.Children {
		if c.Orphan && !strings.HasPrefix(c.Name, "serve") {
			t.Errorf("unexpected orphan %q", c.Name)
		}
	}
}

// TestFleetUntracedPaysNothing: without SetTrace, no spans hit any
// journal — the zero-cost-when-off contract.
func TestFleetUntracedPaysNothing(t *testing.T) {
	_, sets, _, clientSet, fc, _ := tracedFleet(t, 2, 65)
	tb := fc.Tables()
	for _, vet := range sampleVETs(t, tb, 4, 66) {
		fc.HopEnergies(vet)
	}
	for _, set := range append(sets, clientSet) {
		for _, e := range set.Events().Events() {
			if e.Type == telemetry.SpanEventType {
				t.Fatalf("untraced run recorded a span: %+v", e)
			}
		}
	}
}
