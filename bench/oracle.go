package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"pis"
	"pis/server"
)

// postRunChecks is how many pool queries a workload with deletes compares
// against a fresh database after the run.
const postRunChecks = 50

// checkOracle compares served answers with pis.New over the same graphs,
// the repository's correctness oracle. Mismatches count as failed ops.
//
// Without deletes, ids only ever get added, so the oracle holds the
// corpus plus every insert and each marked /search answer must equal the
// oracle's answer cut at some insert count inside the window the client
// observed. With deletes, concurrent reads have no single right answer;
// instead, after the run, pool queries are served again and compared with
// a fresh database over the graphs the op list leaves alive.
func (r *report) checkOracle(in *instance, samples []sample) error {
	l, sp := r.list, r.spec
	if l.counts[opDelete] > 0 {
		return r.checkSurvivors(in)
	}
	oracle, err := pis.New(append(slices.Clone(l.graphs), l.heldOut[:l.counts[opInsert]]...), pis.Options{})
	if err != nil {
		return fmt.Errorf("building the oracle: %w", err)
	}
	defer oracle.Close()
	// insertsBy[w] is how many of the first w writes are inserts.
	insertsBy := []int{0}
	for _, o := range l.ops {
		if o.write >= 0 {
			n := insertsBy[len(insertsBy)-1]
			if o.kind == opInsert {
				n++
			}
			insertsBy = append(insertsBy, n)
		}
	}
	for i, s := range samples {
		o := &l.ops[l.warmup+i]
		if !o.check || s.failed != "" {
			continue
		}
		want := oracle.Search(l.queries[o.query], sp.sigma).Answers
		matched := false
		for w := s.writesLo; w <= s.writesHi && !matched; w++ {
			limit := int32(sp.n + insertsBy[w])
			cut, _ := slices.BinarySearch(want, limit)
			matched = slices.Equal(s.answers, want[:cut])
		}
		if !matched {
			r.fail("op %d: /search answered %v, the oracle %v (writes %d..%d)", l.warmup+i, s.answers, want, s.writesLo, s.writesHi)
		}
	}
	return nil
}

func (r *report) checkSurvivors(in *instance) error {
	l, sp := r.list, r.spec
	survivors := make([]*pis.Graph, len(l.live))
	for i, id := range l.live {
		if int(id) < sp.n {
			survivors[i] = l.graphs[id]
		} else {
			survivors[i] = l.heldOut[int(id)-sp.n]
		}
	}
	oracle, err := pis.New(survivors, pis.Options{})
	if err != nil {
		return fmt.Errorf("building the oracle: %w", err)
	}
	defer oracle.Close()
	var buf bytes.Buffer
	for qi := 0; qi < min(postRunChecks, len(l.queries)); qi++ {
		body, err := json.Marshal(server.SearchRequest{Query: server.EncodeGraph(l.queries[qi]), Sigma: sp.sigma})
		if err != nil {
			return err
		}
		r.attempted++
		status, err := send(http.DefaultClient, "POST", in.url+"/search", body, &buf)
		if err != nil || status != http.StatusOK {
			r.fail("post-run query %d: HTTP %d, %v", qi, status, err)
			continue
		}
		var got server.SearchResponse
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			r.fail("post-run query %d: %v", qi, err)
			continue
		}
		// The fresh database numbers the survivors 0..m-1 in id order.
		var want []int32
		for _, fresh := range oracle.Search(l.queries[qi], sp.sigma).Answers {
			want = append(want, l.live[fresh])
		}
		if !slices.Equal(got.Answers, want) {
			r.fail("post-run query %d: served %v, a fresh database over the survivors answers %v", qi, got.Answers, want)
		}
	}
	return nil
}
