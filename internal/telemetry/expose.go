package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. Series sharing a family name emit one HELP/TYPE block;
// histogram buckets are cumulative with `le` bounds in seconds, ending
// at +Inf (= _count), per the format's contract.
func (s Snapshot) WritePrometheus(w io.Writer) {
	lastFamily := ""
	header := func(name, help, typ string) {
		if name == lastFamily {
			return
		}
		lastFamily = name
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
	series := func(name string, d Desc, extraKey, extraVal string) string {
		labels := ""
		if d.LabelKey != "" {
			labels = d.LabelKey + `="` + d.LabelValue + `"`
		}
		if extraKey != "" {
			if labels != "" {
				labels += ","
			}
			labels += extraKey + `="` + extraVal + `"`
		}
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}

	for _, c := range s.Counters {
		header(c.Desc.Name, c.Desc.Help, "counter")
		fmt.Fprintf(w, "%s %d\n", series(c.Desc.Name, c.Desc, "", ""), c.Value)
	}
	lastFamily = ""
	for _, g := range s.Gauges {
		header(g.Desc.Name, g.Desc.Help, "gauge")
		fmt.Fprintf(w, "%s %d\n", series(g.Desc.Name, g.Desc, "", ""), g.Value)
	}
	lastFamily = ""
	for _, h := range s.Histograms {
		header(h.Desc.Name, h.Desc.Help, "histogram")
		var cum uint64
		for i := 0; i <= HistBuckets; i++ {
			cum += h.Buckets[i]
			var le string
			if i == HistBuckets {
				le = "+Inf"
			} else {
				le = strconv.FormatFloat(float64(BucketBound(i))/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(w, "%s %d\n", series(h.Desc.Name+"_bucket", h.Desc, "le", le), cum)
		}
		fmt.Fprintf(w, "%s %s\n", series(h.Desc.Name+"_sum", h.Desc, "", ""),
			strconv.FormatFloat(float64(h.SumNS)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s %d\n", series(h.Desc.Name+"_count", h.Desc, "", ""), h.Count)
	}
}

// jsonHist is the JSON shape of one histogram series.
type jsonHist struct {
	Count    uint64   `json:"count"`
	SumNS    uint64   `json:"sum_ns"`
	MeanNS   int64    `json:"mean_ns"`
	P50NS    int64    `json:"p50_ns"`
	P90NS    int64    `json:"p90_ns"`
	P99NS    int64    `json:"p99_ns"`
	BoundsNS []uint64 `json:"bounds_ns"`
	Buckets  []uint64 `json:"buckets"`
}

// JSONValue returns the snapshot as a plain map — counter/gauge series
// keyed by their series key, histograms as objects with buckets and
// derived percentiles. This is the payload behind `wizgo -stats -json`
// and the expvar "wizgo" variable.
func (s Snapshot) JSONValue() map[string]any {
	counters := map[string]uint64{}
	for _, c := range s.Counters {
		counters[c.Desc.seriesKey()] = c.Value
	}
	gauges := map[string]int64{}
	for _, g := range s.Gauges {
		gauges[g.Desc.seriesKey()] = g.Value
	}
	hists := map[string]jsonHist{}
	for _, h := range s.Histograms {
		jh := jsonHist{
			Count:  h.Count,
			SumNS:  h.SumNS,
			MeanNS: int64(h.Mean()),
			P50NS:  int64(h.Quantile(0.50)),
			P90NS:  int64(h.Quantile(0.90)),
			P99NS:  int64(h.Quantile(0.99)),
		}
		for i := 0; i < HistBuckets; i++ {
			jh.BoundsNS = append(jh.BoundsNS, BucketBound(i))
		}
		jh.Buckets = append(jh.Buckets, h.Buckets[:]...)
		hists[h.Desc.seriesKey()] = jh
	}
	return map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.JSONValue())
}

// WriteText renders the snapshot as a human-readable stats report —
// the body of `wizgo -stats`. Counters and gauges print one per line;
// histograms print count, mean, and p50/p90/p99.
func (s Snapshot) WriteText(w io.Writer) {
	for _, c := range s.Counters {
		fmt.Fprintf(w, "%-44s %d\n", c.Desc.seriesKey(), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(w, "%-44s %d\n", g.Desc.seriesKey(), g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "%-44s count=%d mean=%v p50=%v p90=%v p99=%v\n",
			h.Desc.seriesKey(), h.Count,
			round(h.Mean()), round(h.Quantile(0.50)),
			round(h.Quantile(0.90)), round(h.Quantile(0.99)))
	}
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(10 * time.Nanosecond)
	}
}

// Handler serves the registry in Prometheus text format — mount it at
// /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WritePrometheus(w)
	})
}

// PublishExpvar publishes the registry as the expvar variable "wizgo",
// so the standard /debug/vars endpoint carries the full snapshot
// alongside Go's memstats. Safe to call once per process; a duplicate
// publish panics in expvar, so the caller gates it.
func PublishExpvar(r *Registry) {
	expvar.Publish("wizgo", expvar.Func(func() any {
		return r.Snapshot().JSONValue()
	}))
}
