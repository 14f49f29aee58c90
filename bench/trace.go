package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program's own telemetry.Tracer stays off). Spans of one
// request share Req; Parent is the ID of the span that caused this one,
// 0 for a request's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. It is not
// goroutine-safe: each client goroutine of the traced warm pass owns
// one, with a disjoint ID range, and the buffers are merged afterwards.
type recorder struct {
	epoch time.Time
	base  int64
	spans []span
}

// clientIDRange separates the ID ranges of per-client recorders.
const clientIDRange = 1 << 40

func newRecorder(epoch time.Time, client int) *recorder {
	return &recorder{epoch: epoch, base: int64(client) * clientIDRange}
}

func (r *recorder) begin(name string, parent, req int64) int64 {
	id := r.base + int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int64) {
	r.spans[id-r.base-1].End = int64(time.Since(r.epoch))
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
