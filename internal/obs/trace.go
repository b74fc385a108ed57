package obs

import "context"

// Span is one timed region of a query, with optional attributes and
// child spans. The engine builds span trees after the fact from the
// per-stage counters it always collects, so tracing adds no work to the
// search hot path; the tree is the presentation, not the measurement.
type Span struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*Span        `json:"children,omitempty"`
}

// SetAttr attaches one key/value to the span, allocating the attribute
// map on first use.
func (s *Span) SetAttr(key string, value any) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = value
}

// Child appends and returns a new child span.
func (s *Span) Child(name string, durationMS float64) *Span {
	c := &Span{Name: name, DurationMS: durationMS}
	s.Children = append(s.Children, c)
	return c
}

// ChildSum returns the summed duration of the direct children, for
// sanity checks that a parent accounts for its parts.
func (s *Span) ChildSum() float64 {
	var sum float64
	for _, c := range s.Children {
		sum += c.DurationMS
	}
	return sum
}

// Trace collects the span tree of one traced query. Whether a query is
// traced rides its context: the caller attaches a Trace with WithTrace,
// the layer that answers the query finds it with TraceFrom and stores
// the tree it built with SetRoot, and the caller reads Root once the
// query has returned. A Trace is written by the one goroutine that
// answers the query it was attached for; a fan-out attaches a fresh one
// per shard and reads them after the shards have finished.
type Trace struct{ root *Span }

type traceKey struct{}

// WithTrace returns a context under which queries build a span tree,
// and the Trace that receives it.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	t := new(Trace)
	return context.WithValue(ctx, traceKey{}, t), t
}

// TraceFrom returns the Trace attached to ctx, or nil when the query is
// not traced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SetRoot stores the query's span tree.
func (t *Trace) SetRoot(sp *Span) { t.root = sp }

// Root returns the stored span tree; nil when the query ended before
// any layer built one.
func (t *Trace) Root() *Span { return t.root }
