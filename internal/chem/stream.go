// Streaming generation: the same molecules Generate produces, one at a
// time, so the out-of-core index build (index.BuildStreaming) can fold a
// database far larger than RAM one bounded chunk at a time.

package chem

import (
	"math/rand"

	"pis/internal/graph"
)

// Stream produces the exact Generate(·, cfg) sequence incrementally:
// the i-th Next() result equals Generate(n, cfg)[i] for any n > i.
// It satisfies index.GraphSource structurally and never ends.
type Stream struct {
	rng *rand.Rand
	cfg Config
}

// NewStream starts the deterministic molecule stream for cfg.
func NewStream(cfg Config) *Stream {
	cfg = cfg.normalized()
	return &Stream{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Next generates the next molecule. The stream is infinite, so ok is
// always true; the consumer decides how many graphs to take.
func (s *Stream) Next() (*graph.Graph, bool) {
	return generateOne(s.rng, s.cfg), true
}
