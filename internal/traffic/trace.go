package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"nbtinoc/internal/noc"
	"nbtinoc/internal/rng"
)

// Event is one packet injection in a recorded trace.
type Event struct {
	Cycle    uint64
	Src, Dst noc.NodeID
	VNet     int
	Len      int
}

// WriteTrace serialises events in the line-oriented text format
// "cycle src dst vnet len", one event per line, preceded by a header.
// Events must be in non-decreasing cycle order.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# nbtinoc trace v1: cycle src dst vnet len"); err != nil {
		return err
	}
	var last uint64
	for i, e := range events {
		if e.Cycle < last {
			return fmt.Errorf("traffic: event %d out of cycle order", i)
		}
		last = e.Cycle
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d\n",
			e.Cycle, e.Src, e.Dst, e.VNet, e.Len); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the text trace format produced by WriteTrace.
// Comment lines (starting with '#') and blank lines are ignored.
func ReadTrace(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var e Event
		if _, err := fmt.Sscanf(line, "%d %d %d %d %d",
			&e.Cycle, &e.Src, &e.Dst, &e.VNet, &e.Len); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %v", lineNo, err)
		}
		if e.Len < 1 || e.Len > noc.MaxPacketLen {
			return nil, fmt.Errorf("traffic: trace line %d: packet length %d outside [1, %d]",
				lineNo, e.Len, noc.MaxPacketLen)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool {
		return events[i].Cycle < events[j].Cycle
	}) {
		return nil, fmt.Errorf("traffic: trace not in cycle order")
	}
	return events, nil
}

// Replayer injects a recorded trace.
type Replayer struct {
	events []Event
	idx    int
	name   string
}

// NewReplayer wraps events (which must be cycle-ordered) in a Generator.
func NewReplayer(events []Event) *Replayer {
	return &Replayer{events: events, name: "trace-replay"}
}

// Name implements Generator.
func (r *Replayer) Name() string { return r.name }

// Done reports whether all events have been replayed.
func (r *Replayer) Done() bool { return r.idx >= len(r.events) }

// Remaining returns the number of events not yet replayed.
func (r *Replayer) Remaining() int { return len(r.events) - r.idx }

// NextEventCycle implements EventHorizon: a trace knows its next
// emission exactly.
func (r *Replayer) NextEventCycle(now uint64) uint64 {
	if r.idx >= len(r.events) {
		return rng.Never
	}
	if c := r.events[r.idx].Cycle; c > now {
		return c
	}
	return now
}

// Tick implements Generator: all events stamped with the given cycle are
// emitted. Events whose cycle has already passed (e.g. when the replay
// starts mid-trace) are emitted immediately rather than dropped.
func (r *Replayer) Tick(cycle uint64, emit Emit) {
	for r.idx < len(r.events) && r.events[r.idx].Cycle <= cycle {
		e := r.events[r.idx]
		emit(e.Src, e.Dst, e.VNet, e.Len)
		r.idx++
	}
}
