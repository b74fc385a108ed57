package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pis"
)

// clientSpan is the load generator's span around one traced request. The
// span tree the server returned for it hangs below as its children; the
// op's position in the list is the identifier they share.
type clientSpan struct {
	TraceID  int              `json:"trace_id"`
	Name     string           `json:"name"`
	StartMS  float64          `json:"start_ms"`
	EndMS    float64          `json:"end_ms"`
	Children []*pis.TraceSpan `json:"children,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes the traced prefix's spans, kept in memory until now.
func writeSpans(dir, workload string, l *opList, traced []sample) error {
	spans := make([]clientSpan, 0, len(traced))
	for i, s := range traced {
		o := &l.ops[l.warmup+i]
		cs := clientSpan{TraceID: l.warmup + i, Name: "client " + o.method + " " + o.path, StartMS: ms(s.start), EndMS: ms(s.end)}
		if s.trace != nil {
			cs.Children = []*pis.TraceSpan{s.trace}
		}
		spans = append(spans, cs)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload)), data, 0o644)
}

// selfTimes adds each span's self time, its duration minus what its
// children cover, to the total for its name.
func selfTimes(sp *pis.TraceSpan, into map[string]float64) {
	self := sp.DurationMS
	for _, c := range sp.Children {
		self -= c.DurationMS
		selfTimes(c, into)
	}
	into[sp.Name] += max(self, 0)
}

// traceMetrics reports where the traced requests' wall time went.
// budget_residual_share is the part of the clients' wall time that no
// span returned by the program covers (HTTP, JSON, the handler, the
// loopback socket); overhead_share is the throughput gap between the
// traced prefix and the untraced remainder of the same list.
func (r *report) traceMetrics(samples []sample, traced int) {
	self := map[string]float64{}
	var wall, covered float64
	n := 0.0
	for _, s := range samples[:traced] {
		if s.trace == nil || s.failed != "" || s.cached {
			continue
		}
		n++
		wall += s.rttMS()
		covered += s.trace.DurationMS
		selfTimes(s.trace, self)
	}
	v := r.values
	v["trace.budget_residual_share"] = 1
	if wall > 0 {
		v["trace.budget_residual_share"] = 1 - covered/wall
	}
	v["trace.client_self_ms_mean"] = ratio(wall-covered, n)
	for _, name := range []string{"search", "plan", "filter", "verify"} {
		v["trace."+name+"_self_ms_mean"] = ratio(self[name], n)
	}

	var prefixEnd, end time.Duration
	for i, s := range samples {
		if i < traced {
			prefixEnd = max(prefixEnd, s.end)
		}
		end = max(end, s.end)
	}
	tracedRPS := ratio(float64(traced), prefixEnd.Seconds())
	restRPS := ratio(float64(len(samples)-traced), (end - prefixEnd).Seconds())
	v["trace.overhead_share"] = 1 - ratio(tracedRPS, restRPS)
}
