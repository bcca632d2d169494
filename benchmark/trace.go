package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer (or one phase of
// the benchmark itself). parent is the index of the enclosing span, -1 at
// the top.
type span struct {
	name       string
	start, end time.Duration // since the tracer was created
	parent     int
	epoch      int
}

// tracer records spans from the benchmark's own files, around its calls
// into each layer; nothing inside the program is instrumented. Spans stay
// in memory and are written out once, at exit. A nil *tracer records
// nothing, which is how every end-to-end repetition runs.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of indices into spans
	epoch    int   // stamped on new spans; -1 during set-up
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), epoch: -1}
}

func (t *tracer) setEpoch(e int) {
	if t != nil {
		t.epoch = e
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, epoch: t.epoch})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// durations returns the duration of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

func (t *tracer) total(name string) time.Duration { return sum(t.durations(name)) }

// mean is the mean duration of the spans called name, 0 when there are none.
func (t *tracer) mean(name string) time.Duration { return mean(t.durations(name)) }

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

// selfTimes returns, per span, its duration minus the part its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// traceEvent is one complete ("X") event of the Chrome trace-event format;
// chrome://tracing and ui.perfetto.dev load a JSON array of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as <dir>/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	fmt.Fprint(w, "[")
	first := true
	for i, s := range t.spans {
		if s.end == 0 {
			continue // never closed: the repetition failed inside it
		}
		ev := traceEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"workload": t.workload, "epoch": s.epoch, "span": i, "parent": s.parent, "self_us": us(self[i])}}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return "", err
		}
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
		w.Write(b)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
