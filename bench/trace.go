package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Times are offsets from the recorder's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: no parent
	Run    string        `json:"run"`    // workload run id, shared by every span of one traced run
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the traced run ends. Safe for
// concurrent use: ranks and the checkpoint hook record from their own
// goroutines.
type recorder struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run, epoch: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: now, End: now})
	return len(r.spans)
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// time records fn as one span and returns its duration.
func (r *recorder) time(name string, parent int, fn func()) time.Duration {
	id := r.begin(name, parent)
	fn()
	return r.end(id)
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTotal sums the self times of every span with the given name.
func (r *recorder) selfTotal(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += self[s.ID]
		}
	}
	return d
}

// maxGap is the longest stretch between the starts of consecutive spans of
// one name: for commits, how long the run went without finishing a task.
func (r *recorder) maxGap(name string) (gap time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var starts []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			starts = append(starts, s.Start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for i := 1; i < len(starts); i++ {
		gap = max(gap, starts[i]-starts[i-1])
	}
	return gap
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children running in parallel overlap,
// so their intervals are merged before subtracting, and a child is clipped to
// its parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := time.Duration(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}
