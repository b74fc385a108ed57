package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pis"
	"pis/internal/core"
	"pis/internal/index"
	"pis/server"
)

// microQueries is how many of the workload's queries each direct timing
// uses.
const microQueries = 64

// microMetrics times the public functions of single layers directly, on
// the workload's own queries: the wire codec, core.MergeGlobal and
// index.RangeQueryInto on a heap and on a mapped index. It runs after the
// measured phase, so nothing here shows in the load figures.
func (r *report) microMetrics(be server.Backend, workDir string) error {
	l, sp := r.list, r.spec
	queries := l.queries[:min(microQueries, len(l.queries))]
	usPer := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }

	// Codec: what the server does to read one /search request, and what a
	// client (or GET /graphs) does to write one graph.
	var bodies [][]byte
	for _, o := range l.ops {
		if o.kind == opSearch && len(bodies) < len(queries) {
			bodies = append(bodies, o.body)
		}
	}
	t := time.Now()
	for _, b := range bodies {
		var req server.SearchRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return err
		}
		if _, err := server.DecodeGraph(req.Query); err != nil {
			return err
		}
	}
	r.values["server.decode_us"] = usPer(time.Since(t), len(bodies))
	t = time.Now()
	for _, q := range queries {
		if _, err := json.Marshal(server.EncodeGraph(q)); err != nil {
			return err
		}
	}
	r.values["server.encode_us"] = usPer(time.Since(t), len(queries))

	// Merge: each answer split into three contiguous id ranges, as three
	// shards would return it.
	var merge time.Duration
	for _, q := range queries {
		res := be.Search(q, sp.sigma)
		parts := make([]core.Result, clusterShards)
		for i := range parts {
			parts[i].Answers = []int32{} // nil would mean "not verified"
		}
		part := func(id int32) *core.Result { return &parts[min(int(id)*clusterShards/sp.n, clusterShards-1)] }
		for i, id := range res.Answers {
			p := part(id)
			p.Answers = append(p.Answers, id)
			p.Distances = append(p.Distances, res.Distances[i])
		}
		for _, id := range res.Candidates {
			p := part(id)
			p.Candidates = append(p.Candidates, id)
		}
		t := time.Now()
		core.MergeGlobal(parts)
		merge += time.Since(t)
	}
	r.values["shard.merge_us_mean"] = usPer(merge, len(queries))

	// Range queries: the index pis builds over the corpus with its default
	// options, taken from the side file a mapped store keeps it in, once
	// decoded onto the heap and once mapped.
	dir := filepath.Join(workDir, "micro")
	db, err := pis.Create(dir, l.graphs, pis.Options{MappedIndex: true})
	if err != nil {
		return fmt.Errorf("building the store for the range-query timing: %w", err)
	}
	if err := db.Close(); err != nil {
		return err
	}
	images, err := filepath.Glob(filepath.Join(dir, "shard-000", "idx-*.pisidx3"))
	if err != nil || len(images) != 1 {
		return fmt.Errorf("want one PISIDX3 side file in the mapped store, found %v (%v)", images, err)
	}
	path := images[0]
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	heap, err := index.Load(f, pis.EdgeMutation)
	f.Close()
	if err != nil {
		return fmt.Errorf("decoding %s onto the heap: %w", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.values["index.bytes"] = float64(fi.Size())
	mapped, err := index.OpenMapped(path, pis.EdgeMutation)
	if err != nil {
		return err
	}
	defer mapped.Close()
	for _, side := range []struct {
		name string
		idx  *index.Index
	}{{"index.range_query_heap_us", heap}, {"index.range_query_mapped_us", mapped}} {
		var pl index.PostingList
		var rb index.RangeBuffer
		var spent time.Duration
		n := 0
		for _, q := range queries {
			frags := side.idx.QueryFragments(q)
			t := time.Now()
			for _, qf := range frags {
				side.idx.RangeQueryInto(qf, sp.sigma, &pl, &rb, nil)
			}
			spent += time.Since(t)
			n += len(frags)
		}
		r.values[side.name] = usPer(spent, n)
	}
	return nil
}
