package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLimit caps the spans one traced run keeps; later ones are counted
// as dropped, so a long run cannot exhaust memory.
const spanLimit = 1 << 20

// span is one timed call from the benchmark into a layer of the program.
// Spans of one benchmark operation share Op; Parent is the ID of the
// enclosing span, or -1 for the operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans records spans in memory for the traced run. A nil *spans
// records nothing, so untraced runs pay one nil check per call site.
type spans struct {
	mu      sync.Mutex
	t0      time.Time
	list    []span
	dropped int64
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when not recording).
func (s *spans) begin(name string, op int64, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.list) >= spanLimit {
		s.dropped++
		return -1
	}
	id := len(s.list)
	s.list = append(s.list, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.list[id].End = now
	s.mu.Unlock()
}

// do runs f inside a span named name.
func (s *spans) do(name string, op int64, parent int, f func()) {
	id := s.begin(name, op, parent)
	f()
	s.end(id)
}

// layerTime is the aggregate of every closed span of one name. Self is
// the spans' duration minus the time their child spans cover.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (s *spans) summary() []layerTime {
	s.mu.Lock()
	defer s.mu.Unlock()
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 && sp.End >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for i, sp := range s.list {
		if sp.End < 0 {
			continue
		}
		lt := byName[sp.Name]
		if lt == nil {
			lt = &layerTime{Name: sp.Name}
			byName[sp.Name] = lt
			names = append(names, sp.Name)
		}
		dur := sp.End - sp.Start
		self := dur - child[i]
		if self < 0 {
			self = 0
		}
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(self) / 1e6
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// writeFile writes every span and the per-name summary as JSON.
func (s *spans) writeFile(path string) error {
	sum := s.summary()
	s.mu.Lock()
	doc := struct {
		Dropped int64       `json:"dropped"`
		Summary []layerTime `json:"summary"`
		Spans   []span      `json:"spans"`
	}{s.dropped, sum, s.list}
	data, err := json.Marshal(doc)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary renders the per-name summary as a table.
func (s *spans) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range s.summary() {
		fmt.Fprintf(w, "%-34s %8d %12.2f %12.2f\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
}
