package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one harness-side interval around a call into the system.
// Spans of one operation share Op; Parent is the ID of the span that
// caused this one, 0 for an operation's root. Times are nanoseconds
// since the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one span buffer per client goroutine, so recording takes
// no lock; a nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0   time.Time
	bufs []*spanBuf
}

// spanBuf is one goroutine's spans. IDs are unique across buffers: the
// lane sits in the low bits.
type spanBuf struct {
	t0    time.Time
	lane  int
	lanes int
	next  int
	spans []span
}

func newTracer(lanes int) *tracer {
	t := &tracer{t0: time.Now()}
	for i := 0; i < lanes; i++ {
		t.bufs = append(t.bufs, &spanBuf{t0: t.t0, lane: i, lanes: lanes})
	}
	return t
}

// lane returns goroutine i's buffer, nil on a nil tracer.
func (t *tracer) lane(i int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[i]
}

// reserve hands out a span ID before the span's end is known, so that
// children recorded first can name it as their parent; addAs records the
// span under it.
func (b *spanBuf) reserve() int {
	if b == nil {
		return 0
	}
	b.next++
	return b.next*b.lanes + b.lane
}

func (b *spanBuf) addAs(id, op, parent int, name string, start, end time.Time) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(b.t0)), End: int64(end.Sub(b.t0)),
	})
}

// add records a finished span and returns its ID for children to name
// as their parent.
func (b *spanBuf) add(op, parent int, name string, start, end time.Time) int {
	id := b.reserve()
	b.addAs(id, op, parent, name, start, end)
	return id
}

// phases records durations the system returned for an operation
// (RetrieveResult, PublishResult) as consecutive child spans laid from
// the parent's start: the harness cannot see where inside the call they
// fell, only how long each was.
func (b *spanBuf) phases(op, parent int, start time.Time, names []string, durs []time.Duration) {
	if b == nil {
		return
	}
	at := start
	for i, name := range names {
		b.add(op, parent, name, at, at.Add(durs[i]))
		at = at.Add(durs[i])
	}
}

func (t *tracer) reset() {
	if t == nil {
		return
	}
	for _, b := range t.bufs {
		b.spans = b.spans[:0]
	}
}

func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) sample {
	var s sample
	if t == nil {
		return s
	}
	for _, b := range t.bufs {
		for _, sp := range b.spans {
			if sp.Name == name {
				s = append(s, float64(sp.End-sp.Start))
			}
		}
	}
	return s
}

// selfTime is one span name's total duration and the part of it its
// child spans do not cover.
type selfTime struct {
	Name   string
	Count  int
	Total  time.Duration
	Self   time.Duration
	SelfFr float64 // share of all self time
}

// selfTimes computes, per span name, duration minus the children's
// covered part. Children of one parent are sequential here (one client
// goroutine, one call at a time), so covered time is the plain sum.
func selfTimes(spans []span) []selfTime {
	covered := map[int]int64{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			covered[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*selfTime{}
	var all time.Duration
	for _, sp := range spans {
		st := byName[sp.Name]
		if st == nil {
			st = &selfTime{Name: sp.Name}
			byName[sp.Name] = st
		}
		d := sp.End - sp.Start
		self := d - covered[sp.ID]
		if self < 0 {
			self = 0 // returned phase durations may overlap by rounding
		}
		st.Count++
		st.Total += time.Duration(d)
		st.Self += time.Duration(self)
		all += time.Duration(self)
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		st.SelfFr = ratio(float64(st.Self), float64(all))
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTimes(w io.Writer, sts []selfTime) {
	fmt.Fprintf(w, "  %-22s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, st := range sts {
		fmt.Fprintf(w, "  %-22s %9d %12.1f %12.1f %6.1f%%\n", st.Name, st.Count,
			float64(st.Total)/nsPerMs, float64(st.Self)/nsPerMs, 100*st.SelfFr)
	}
}
