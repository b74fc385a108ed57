package obs

import (
	"sync"
	"time"
)

// QueryRecord is one sampled query in the debug ring buffer, carrying
// enough of the request and its span tree to diagnose it after the
// response is gone.
type QueryRecord struct {
	Time      time.Time `json:"time"`
	Endpoint  string    `json:"endpoint"`
	Sigma     float64   `json:"sigma,omitempty"`
	QueryN    int       `json:"query_vertices,omitempty"`
	QueryM    int       `json:"query_edges,omitempty"`
	Answers   int       `json:"answers"`
	ElapsedMS float64   `json:"elapsed_ms"`
	Slow      bool      `json:"slow,omitempty"`
	Trace     *Span     `json:"trace,omitempty"`
}

// QueryLog is a fixed-size ring buffer of recent queries, safe for
// concurrent use. The zero value is unusable; use NewQueryLog.
type QueryLog struct {
	mu   sync.Mutex
	ring []QueryRecord
	next int // index of the slot the next Add overwrites
	size int // live records, <= len(ring)
}

// NewQueryLog returns a ring holding the last capacity records
// (capacity < 1 falls back to 1).
func NewQueryLog(capacity int) *QueryLog {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryLog{ring: make([]QueryRecord, capacity)}
}

// Add records one query, evicting the oldest record when full.
func (l *QueryLog) Add(rec QueryRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = rec
	l.next = (l.next + 1) % len(l.ring)
	if l.size < len(l.ring) {
		l.size++
	}
}

// Snapshot returns the recorded queries newest first, up to limit
// (limit <= 0 means all).
func (l *QueryLog) Snapshot(limit int) []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.size
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]QueryRecord, n)
	for i := 0; i < n; i++ {
		// next-1 is the newest slot.
		out[i] = l.ring[(l.next-1-i+2*len(l.ring))%len(l.ring)]
	}
	return out
}

// Len returns the number of live records.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}
