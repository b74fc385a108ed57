package index_test

import (
	"slices"
	"testing"

	"pis/internal/chem"
	"pis/internal/core"
	"pis/internal/distance"
	"pis/internal/index"
	"pis/internal/mining"
)

// TestEntryRunsAreTheOneSource: an image of kind 3 whose posting block for
// one class leaves out a graph that the class's entry runs hold, every
// checksum recomputed, opens cleanly. A reader that paired the class from
// that block would drop the graph from every structural candidate set the
// class takes part in, and a search whose query holds the class would
// miss the graph's answer. The index pairs its classes from the entry
// runs, so the search answers as verifying every graph does.
func TestEntryRunsAreTheOneSource(t *testing.T) {
	metric := distance.EdgeMutation{}
	db := chem.Generate(80, chem.Config{Seed: 4})
	feats, err := mining.Mine(db, mining.Options{MaxEdges: 3, MinEdges: 1, MinSupportFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	built, err := index.BuildParallel(db, feats, index.Options{Metric: metric}, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewSearcher(db, built, core.Options{})
	q := chem.SampleQueries(db, 1, 6, 9)[0]
	const sigma = 1
	want := oracle.SearchNaive(q, sigma)
	if len(want.Answers) == 0 {
		t.Fatal("the query has no answer to lose")
	}
	lost := want.Answers[len(want.Answers)/2]
	classes := built.QueryClasses(nil, q, new(index.FragmentScratch))
	if len(classes) == 0 {
		t.Fatal("the query holds no indexed structure")
	}
	target := classes[0].ID

	image := index.PostedImage(t, built, func(class int, graphs []int32) []int32 {
		if class != target {
			return graphs
		}
		i, ok := slices.BinarySearch(graphs, lost)
		if !ok {
			t.Fatalf("answer %d does not hold the query's class %d", lost, class)
		}
		return slices.Delete(graphs, i, i+1)
	})
	x, err := index.LoadBytes(image, metric)
	if err != nil {
		t.Fatalf("the crafted image is well-formed: %v", err)
	}
	got := core.NewSearcher(db, x, core.Options{}).Search(q, sigma)
	if !slices.Equal(got.Answers, want.Answers) {
		t.Fatalf("answers %v, verifying every graph gives %v (graph %d left out of class %d's posting block)",
			got.Answers, want.Answers, lost, target)
	}
}
