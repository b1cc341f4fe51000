package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// SpanRecord is one span event decoded from a journal: the unit
// Assemble stitches into a tree. Source names the journal it came from
// (one per process), so the assembled tree shows which process ran each
// span.
type SpanRecord struct {
	// Trace, Span and Parent are the span's lineage (Parent zero for a
	// trace root), Name its journalled message, Wall its completion time,
	// Dur its duration in seconds (zero for an annotation) and Source the
	// journal file it was read from.
	Trace  uint64
	Span   uint64
	Parent uint64
	Name   string
	Wall   time.Time
	Dur    float64
	Source string
}

// spanRecord decodes a journal event into a span record; ok is false
// for non-span events and events whose IDs do not parse.
func spanRecord(e Event, source string) (SpanRecord, bool) {
	if e.Type != SpanEventType || e.Trace == "" || e.Span == "" {
		return SpanRecord{}, false
	}
	tid, err := ParseID(e.Trace)
	if err != nil {
		return SpanRecord{}, false
	}
	sid, err := ParseID(e.Span)
	if err != nil {
		return SpanRecord{}, false
	}
	r := SpanRecord{Trace: tid, Span: sid, Name: e.Msg, Wall: e.Wall, Dur: e.Dur, Source: source}
	if e.Parent != "" {
		if pid, err := ParseID(e.Parent); err == nil {
			r.Parent = pid
		}
	}
	return r, true
}

// readJournal decodes one JSONL journal file (the flushed form of
// Journal) into its events. Lines that are not valid JSON are skipped —
// a journal truncated by a crash still yields its intact prefix.
func readJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		events = append(events, e)
	}
	return events, sc.Err()
}

// Collect reads the given journal files and returns every span record
// belonging to the trace, tagged with its source file.
func Collect(traceID uint64, paths []string) ([]SpanRecord, error) {
	var recs []SpanRecord
	for _, path := range paths {
		events, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		for _, e := range events {
			if r, ok := spanRecord(e, path); ok && r.Trace == traceID {
				recs = append(recs, r)
			}
		}
	}
	return recs, nil
}

// Node is one assembled span with its children, ordered by wall-clock
// start (completed spans record their end time, so ordering uses
// Wall - Dur). Orphan reports that the span's recorded parent was not
// found in any journal — the mark of a process whose journal was lost
// (e.g. a fleet node killed mid-request).
type Node struct {
	SpanRecord
	Orphan   bool    // the recorded parent is in no collected journal
	Children []*Node // in start order
}

// Assemble builds the span tree for one trace from the collected
// records. Spans whose parent span is present nest under it; root
// spans (no parent) and orphans (parent recorded but missing) become
// top-level children of the returned synthetic root. The synthetic
// root's Trace field is set; its Span is zero.
func Assemble(traceID uint64, recs []SpanRecord) *Node {
	root := &Node{SpanRecord: SpanRecord{Trace: traceID}}
	byID := map[uint64]*Node{}
	nodes := make([]*Node, 0, len(recs))
	for _, r := range recs {
		if r.Trace != traceID {
			continue
		}
		n := &Node{SpanRecord: r}
		// Duplicate span IDs cannot happen across processes (minting is
		// process-unique), but a journal flushed twice can repeat one —
		// keep the first.
		if _, dup := byID[r.Span]; dup {
			continue
		}
		byID[r.Span] = n
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		switch {
		case n.Parent == 0:
			root.Children = append(root.Children, n)
		case byID[n.Parent] != nil:
			p := byID[n.Parent]
			p.Children = append(p.Children, n)
		default:
			n.Orphan = true
			root.Children = append(root.Children, n)
		}
	}
	var sortTree func(n *Node)
	sortTree = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].startWall().Before(n.Children[j].startWall())
		})
		for _, c := range n.Children {
			sortTree(c)
		}
	}
	sortTree(root)
	return root
}

// startWall estimates when the span began: journals record completion,
// so the start is the recorded wall time minus the duration.
func (n *Node) startWall() time.Time {
	if n.Dur <= 0 {
		return n.Wall
	}
	return n.Wall.Add(-time.Duration(n.Dur * float64(time.Second)))
}

// Spans counts the real spans in the tree (the synthetic root is not
// one).
func (n *Node) Spans() int {
	total := 0
	if n.Span != 0 {
		total++ // a real node (the synthetic root has Span zero)
	}
	for _, c := range n.Children {
		total += c.Spans()
	}
	return total
}

// Write renders the tree as an indented listing: span name, duration,
// source journal, and an orphan mark where lineage was lost.
func (n *Node) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trace %s: %d spans\n", ID(n.Trace), n.Spans()); err != nil {
		return err
	}
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		for _, c := range n.Children {
			line := fmt.Sprintf("%*s%s", 2*depth, "", c.Name)
			if c.Dur > 0 {
				line += fmt.Sprintf("  (%s)", formatSeconds(c.Dur))
			}
			if c.Source != "" {
				line += fmt.Sprintf("  [%s]", c.Source)
			}
			if c.Orphan {
				line += "  <parent span missing>"
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(n, 1)
}
