package main

import (
	"net"
	"sync/atomic"

	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/kmc"
)

// fleet is the set of in-process loopback evaluation nodes a workload
// owns: what `tkmc-serve -potential eam -fleet N` runs, started once per
// child process. Each node sits behind a counting listener so the wire
// traffic is measured on the sockets, outside the program.
type fleet struct {
	nodes []*fleetNode
	wire  wireCounters
}

type fleetNode struct {
	srv   *evalserve.Server
	front *evalserve.Frontend
}

// wireCounters tallies what crossed the nodes' sockets, server side.
type wireCounters struct {
	bytesIn  atomic.Int64 // client → node
	bytesOut atomic.Int64 // node → client
}

// startFleet starts n EAM nodes on 127.0.0.1:0 with the serve defaults
// (cache size, shards, batch width, workers all at their zero values).
func startFleet(n int, tb *encoding.Tables) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv := newEAMServer(tb)
		front := evalserve.Serve(srv, &countingListener{Listener: ln, c: &f.wire})
		f.nodes = append(f.nodes, &fleetNode{srv: srv, front: front})
	}
	return f, nil
}

// newEAMServer is one node's evaluation service: the EAM model pool
// behind a default-sized cache, as `tkmc-serve -potential eam` builds it.
func newEAMServer(tb *encoding.Tables) *evalserve.Server {
	pot := eam.New(eam.Default())
	opts := evalserve.Options{}.WithDefaults()
	return evalserve.New(evalserve.NewModelBackend(func() kmc.Model {
		return eam.NewFastRegionEvaluator(pot, tb)
	}, opts.Workers), opts)
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.front.Addr().String()
	}
	return out
}

// serverStats sums the nodes' cache counters.
func (f *fleet) serverStats() (hits, misses int64) {
	for _, n := range f.nodes {
		st := n.srv.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// close stops every node and waits for its handlers and workers.
func (f *fleet) close() {
	for _, n := range f.nodes {
		n.front.Close()
		n.srv.Close()
	}
}

// countingListener wraps accepted connections with byte counters.
type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytesOut.Add(int64(n))
	return n, err
}
