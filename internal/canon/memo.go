// Canonical-code memoization. Fragment enumeration presents the same few
// dozen skeleton shapes millions of times — every path of length 3 in
// every graph extracts to the same renumbered structure — yet index
// construction and query fragment extraction used to recanonicalize each
// occurrence from scratch. A Memo caches MinCodeUnlabeled results keyed by
// the exact structural encoding of the (renumbered) fragment, so a
// steady-state lookup is one hash, one map probe, and zero allocations.
//
// Safety: the cache key is the full vertex count + edge list encoding,
// not a lossy hash. Two graphs share a key iff they have identical vertex
// numbering and edge lists, which makes the cached Code and Embedding
// values (both expressed in input vertex/edge indices) interchangeable
// between them. A fast FNV-1a hash of the key only picks the lock shard;
// equality is always decided by the exact key.

package canon

import (
	"sync"
	"sync/atomic"

	"pis/internal/graph"
)

const memoShardCount = 16

// Memo is a concurrency-safe cache of MinCodeUnlabeled results. The zero
// value is not usable; call NewMemo. Callers must treat the returned Code
// and Embedding slices as immutable — they are shared between all lookups
// of the same structure.
type Memo struct {
	shards [memoShardCount]memoShard
	hits   atomic.Int64
	misses atomic.Int64
}

type memoShard struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// Entry is one cached canonical form. All of it is shared between every
// lookup of the same structure and must not be modified.
type Entry struct {
	Code Code
	Embs []Embedding
	// Key is Code.Key(), built once so a hit can probe a table keyed by
	// structure code without allocating.
	Key string
}

func newEntry(skeleton *graph.Graph) *Entry {
	code, embs := MinCodeUnlabeled(skeleton)
	return &Entry{Code: code, Embs: embs, Key: code.Key()}
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	mm := &Memo{}
	for i := range mm.shards {
		mm.shards[i].m = make(map[string]*Entry)
	}
	return mm
}

// Hits returns the number of cache hits served.
func (mm *Memo) Hits() int64 { return mm.hits.Load() }

// Misses returns the number of lookups that computed a fresh code.
func (mm *Memo) Misses() int64 { return mm.misses.Load() }

// Len returns the number of distinct structures cached.
func (mm *Memo) Len() int {
	n := 0
	for i := range mm.shards {
		s := &mm.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// memoKeyInline covers fragments of up to 31 edges without allocating.
const memoKeyInline = 128

// The cache key is the exact structural encoding of a renumbered graph:
// its vertex count, then the two endpoints of every edge in order.

func appendMemoKeyHeader(key []byte, n int) []byte {
	return append(key, byte(n), byte(n>>8))
}

func appendMemoKeyEdge(key []byte, u, v int32) []byte {
	return append(key, byte(u), byte(u>>8), byte(v), byte(v>>8))
}

// find probes the shard owning key (picked by FNV-1a over it) and counts
// a hit.
func (mm *Memo) find(key []byte) (*memoShard, *Entry) {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	s := &mm.shards[h%memoShardCount]
	s.mu.RLock()
	e := s.m[string(key)]
	s.mu.RUnlock()
	if e != nil {
		mm.hits.Add(1)
	}
	return s, e
}

// Lookup returns the cached entry of the n-vertex structure whose k-th
// edge joins vertices ends[2k] < ends[2k+1] (graph.Renumbering.Ends), or
// nil when it has not been computed yet; Entry over the extracted graph
// then fills it. A hit is one hash and one map probe, no allocation, and
// no Graph is needed to ask.
func (mm *Memo) Lookup(n int, ends []int32) *Entry {
	if n >= 1<<16 || 2+2*len(ends) > memoKeyInline {
		return nil
	}
	var arr [memoKeyInline]byte
	key := appendMemoKeyHeader(arr[:0], n)
	for k := 0; k+1 < len(ends); k += 2 {
		key = appendMemoKeyEdge(key, ends[k], ends[k+1])
	}
	_, e := mm.find(key)
	return e
}

// Entry returns the canonical form of g's skeleton, computing it at most
// once per distinct structure. Labels and weights of g are ignored (the
// skeleton is taken internally on a miss), so callers can pass the labeled
// fragment directly and skip the Skeleton copy on the hit path.
func (mm *Memo) Entry(g *graph.Graph) *Entry {
	n, m := g.N(), g.M()
	if n >= 1<<16 || m >= 1<<15 {
		// Far beyond fragment sizes; don't let the fixed-width key overflow.
		return newEntry(g.Skeleton())
	}
	var arr [memoKeyInline]byte
	key := arr[:0]
	if need := 2 + 4*m; need > len(arr) {
		key = make([]byte, 0, need)
	}
	key = appendMemoKeyHeader(key, n)
	for _, e := range g.Edges() {
		key = appendMemoKeyEdge(key, e.U, e.V)
	}
	s, e := mm.find(key)
	if e != nil {
		return e
	}

	e = newEntry(g.Skeleton())
	mm.misses.Add(1)
	s.mu.Lock()
	if prev := s.m[string(key)]; prev != nil {
		// Another goroutine computed it concurrently; keep one entry so
		// every caller shares the same backing slices.
		s.mu.Unlock()
		return prev
	}
	s.m[string(key)] = e
	s.mu.Unlock()
	return e
}

// MinCodeUnlabeled returns the minimum DFS code and canonical embeddings
// of g's skeleton through the cache (see Entry). The returned slices are
// shared; callers must not modify them.
func (mm *Memo) MinCodeUnlabeled(g *graph.Graph) (Code, []Embedding) {
	e := mm.Entry(g)
	return e.Code, e.Embs
}
