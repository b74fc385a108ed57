// In-memory index construction. Finding fragments (the class trie walk,
// query.go) and laying out their keys dominate a build; graphs are
// independent, so a worker pool computes each graph's insert operations
// (computeOps) and a sequencer applies them in graph-id order (apply).
// Sequenced application keeps the result bit-identical for any worker
// count (the id-run dedup relies on ascending ids); the serial
// build is the same fold with the one worker inlined.

package index

import (
	"runtime"
	"sync"
	"time"

	"pis/internal/graph"
	"pis/internal/mining"
)

// graphOps is one graph's fragments ready to fold: fragment i goes into
// classes[i] under the next classes[i].SeqLen() words of keys.
type graphOps struct {
	classes []*Class
	keys    []uint64
}

// BuildParallel is Build with a worker pool; workers <= 0 uses GOMAXPROCS.
// The result is identical for every worker count on the same inputs.
func BuildParallel(db []*graph.Graph, features []mining.Feature, opts Options, workers int) (*Index, error) {
	buildStart := time.Now()
	x, err := scaffold(features, opts)
	if err != nil {
		return nil, err
	}
	x.foldAndSeal(db, 0, workers)
	mBuildSeconds.ObserveSince(buildStart)
	mBuildGraphs.Add(int64(len(db)))
	return x, nil
}

// foldAndSeal folds the fragments of db[from:] into the class stores
// (graphs below from are in them already, see Rebase) and seals the index
// over db: entry blocks, planner statistics, class bitmaps.
func (x *Index) foldAndSeal(db []*graph.Graph, from, workers int) {
	x.dbSize = len(db)
	x.fingerprint = graph.Fingerprint(db)
	x.fold(db, from, workers)
	x.finalize()
	x.computeStats()
	x.pair(db)
}

// fold folds the fragments of db[from:] into the class stores under their
// positions in db, on workers goroutines (<= 0: GOMAXPROCS).
func (x *Index) fold(db []*graph.Graph, from, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(db)-from < 2*workers {
		var fs FragmentScratch
		var ops graphOps
		for id := from; id < len(db); id++ {
			ops = x.computeOps(ops, db[id], &fs)
			x.apply(int32(id), ops)
		}
		return
	}
	x.foldParallel(db, from, workers)
}

// foldParallel computes the ops of every graph from id from on, on workers
// goroutines, and applies them in ascending graph id. A fixed set of ops
// circulates: a worker takes one from free before it takes a graph, and
// the sequencer returns it once applied. A molecule's ops run to about
// 100 KB, which allocated afresh per graph would be most of a build's
// garbage, and the set bounds how far the workers run ahead.
func (x *Index) foldParallel(db []*graph.Graph, from, workers int) {
	type result struct {
		id  int32
		ops graphOps
	}
	jobs := make(chan int32, workers)
	results := make(chan result, workers)
	// Eight ops a worker let the others run on past a graph that takes
	// several times the mean.
	free := make(chan graphOps, 8*workers)
	for range cap(free) {
		free <- graphOps{}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fs FragmentScratch
			for {
				ops := <-free
				id, ok := <-jobs
				if !ok {
					return
				}
				results <- result{id: id, ops: x.computeOps(ops, db[id], &fs)}
			}
		}()
	}
	go func() {
		for id := int32(from); id < int32(len(db)); id++ {
			jobs <- id
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	pending := make(map[int32]graphOps)
	next := int32(from)
	for res := range results {
		pending[res.id] = res.ops
		for {
			ops, ok := pending[next]
			if !ok {
				break
			}
			x.apply(next, ops)
			delete(pending, next)
			free <- ops
			next++
		}
	}
}

// apply folds graph id's ops into the class stores. Ids must arrive
// ascending: the id-run dedup compares against the last id only.
func (x *Index) apply(id int32, ops graphOps) {
	keys := ops.keys
	for _, c := range ops.classes {
		c.stage.fold(keys[:c.SeqLen()], id)
		keys = keys[c.SeqLen():]
	}
}

// computeOps runs the read-only part of folding g in: walk the class trie
// and lay out keys — everything except mutating the shared class stores.
// The ops overwrite ops' storage and are returned; fs is the calling
// goroutine's scratch.
func (x *Index) computeOps(ops graphOps, g *graph.Graph, fs *FragmentScratch) graphOps {
	ops.classes, ops.keys = ops.classes[:0], ops.keys[:0]
	fs.w.run(x, g, nil, nil, &ops)
	return ops
}
