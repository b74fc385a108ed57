package segment_test

import (
	"testing"

	"pis/internal/graph"
)

// TestMemoCatchUpPrescreens: a memo hit prices the graphs inserted since
// its entry through the pipeline's prescreen, fingerprint included. The
// query with every bond relabeled has the query's skeleton, so the graph
// invariants admit it, and a label deficit of one per bond, which the
// fingerprint refutes at σ = 1 without verifying.
func TestMemoCatchUpPrescreens(t *testing.T) {
	seg, graphs := newMemoSegment(t, 40)
	defer seg.Close()
	q, sigma := graphs[3], 1.0
	search(seg, q, sigma)
	searchKNN(seg, q, 3, 2)

	b := graph.NewBuilder(q.N(), q.M())
	for v := 0; v < q.N(); v++ {
		b.AddVertex(q.VLabelAt(v))
	}
	for _, e := range q.Edges() {
		b.AddEdge(e.U, e.V, e.Label+7)
	}
	if _, err := seg.Insert(b.MustBuild(), 40); err != nil {
		t.Fatal(err)
	}
	r := search(seg, q, sigma)
	sameAsNaive(t, "after inserting the relabeled query", seg, q, sigma, r)
	if st := r.Stats; st.MemoHits != 1 || st.Verified != 0 || st.PrescreenRejects != 1 || st.InvariantRejects != 0 {
		t.Fatalf("the hit should refute the relabeled query by its fingerprint alone: %+v", st)
	}
	if got, want := searchKNN(seg, q, 3, 2), naiveKNN(seg, q, 3, 2); !sameNeighbors(got, want) {
		t.Fatalf("kNN after the insert: %v, naive %v", got, want)
	}
}
