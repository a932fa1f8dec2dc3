package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Parent is the
// index of the enclosing span (-1 at top level); Run names the replay or
// phase the span belongs to, so spans of one replay share an identifier.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
}

// counterSample is a set of counters read at a span boundary.
type counterSample struct {
	At       string             `json:"at"`
	NS       int64              `json:"ns"`
	Counters map[string]float64 `json:"counters"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// switched off, records nothing: untraced runs and the untraced blocks
// of a traced run pay one branch per call site.
type tracer struct {
	on       bool
	t0       time.Time
	run      string
	spans    []span
	stack    []int
	counters []counterSample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) active() bool { return t != nil && t.on }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.active() {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, Run: t.run})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// count records counters at a boundary; it records on traced runs even
// while span recording is switched off, so every block has its row.
func (t *tracer) count(at string, c map[string]float64) {
	if t == nil {
		return
	}
	t.counters = append(t.counters, counterSample{At: at, NS: int64(time.Since(t.t0)), Counters: c})
}

// selfNS returns, per span name, total duration minus the part covered
// by child spans.
func (t *tracer) selfNS() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		out[s.Name] += s.EndNS - s.StartNS - child[i]
	}
	return out
}

func (t *tracer) write(path string) error {
	doc := struct {
		Spans    []span           `json:"spans"`
		SelfNS   map[string]int64 `json:"self_ns_by_name"`
		Counters []counterSample  `json:"counters"`
	}{t.spans, t.selfNS(), t.counters}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
