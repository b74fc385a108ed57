package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomBinGraph builds a random simple graph, optionally weighted.
func randomBinGraph(rng *rand.Rand, weighted bool) *Graph {
	n := 1 + rng.Intn(8)
	b := NewBuilder(n, n*2)
	for i := 0; i < n; i++ {
		if weighted {
			b.AddWeightedVertex(VLabel(rng.Intn(9)), rng.NormFloat64())
		} else {
			b.AddVertex(VLabel(rng.Intn(9)))
		}
	}
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			if rng.Intn(3) == 0 {
				w := 0.0
				if weighted || rng.Intn(4) == 0 {
					w = rng.NormFloat64()
				}
				b.AddWeightedEdge(u, v, ELabel(rng.Intn(5)), w)
			}
		}
	}
	return b.MustBuild()
}

// sameGraph compares two graphs through the text codec, which renders
// every observable field.
func sameGraph(t *testing.T, a, b *Graph) bool {
	t.Helper()
	var ba, bb bytes.Buffer
	if err := WriteDB(&ba, []*Graph{a}); err != nil {
		t.Fatal(err)
	}
	if err := WriteDB(&bb, []*Graph{b}); err != nil {
		t.Fatal(err)
	}
	return ba.String() == bb.String()
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		g := randomBinGraph(rng, i%2 == 0)
		enc := g.AppendBinary(nil)
		// A second graph appended after the first must decode in sequence.
		g2 := randomBinGraph(rng, i%3 == 0)
		enc = g2.AppendBinary(enc)
		d1, rest, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode 1: %v", err)
		}
		d2, rest, err := DecodeBinary(rest)
		if err != nil {
			t.Fatalf("decode 2: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes after decoding both graphs", len(rest))
		}
		if !sameGraph(t, g, d1) || !sameGraph(t, g2, d2) {
			t.Fatal("binary round-trip changed the graph")
		}
		// Weightedness is preserved exactly, not just observably.
		if (g.vweights == nil) != (d1.vweights == nil) {
			t.Fatal("vertex-weight presence not preserved")
		}
	}
}

func TestBinaryDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomBinGraph(rng, true)
	enc := g.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeBinary(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

// TestBinaryDecodeRefusesParallelEdges: an encoding that lists an edge
// twice is refused, as Builder refuses it, though every edge on its own is
// in range and ordered and re-encoding would give the same bytes. Snapshot,
// WAL and shard-RPC decoding all go through DecodeBinary.
func TestBinaryDecodeRefusesParallelEdges(t *testing.T) {
	// Flags 0, 2 vertices, 2 edges, labels 0 0, then (0,1) label 0 twice.
	enc := []byte{0, 2, 2, 0, 0, 0, 1, 0, 0, 1, 0}
	if g, _, err := DecodeBinary(enc); err == nil {
		t.Fatalf("decoded a graph with edges %v", g.edges)
	}
	// The same bytes with the second edge's label changed: still parallel.
	enc[10] = 1
	if _, _, err := DecodeBinary(enc); err == nil {
		t.Fatal("decoded parallel edges of different labels")
	}
	// A triangle is fine.
	ok := []byte{0, 3, 3, 0, 0, 0, 0, 1, 0, 0, 2, 0, 1, 2, 0}
	if _, rest, err := DecodeBinary(ok); err != nil || len(rest) != 0 {
		t.Fatalf("triangle: %v, %d bytes left", err, len(rest))
	}
}

func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	graphs := make([]*Graph, 12)
	for i := range graphs {
		graphs[i] = randomBinGraph(rng, i%2 == 0)
	}
	fp := Fingerprint(graphs)
	if fp == 0 {
		t.Fatal("fingerprint 0 is reserved for 'none'")
	}
	if Fingerprint(graphs) != fp {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint(graphs[:11]) == fp {
		t.Fatal("fingerprint ignored a dropped graph")
	}
	swapped := append([]*Graph(nil), graphs...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if Fingerprint(swapped) == fp {
		t.Fatal("fingerprint is order-insensitive")
	}
}

// TestIncidentEdgesAscending pins the layout link gives every constructor
// and that nothing sorts afterwards: a vertex's slots ascend by edge index,
// nbrV[s] is the far endpoint of nbrE[s], and the slots number 2m — for
// Build, DecodeBinary, Extract, Clone and Skeleton.
func TestIncidentEdgesAscending(t *testing.T) {
	laidOut := func(name string, g *Graph) {
		t.Helper()
		n, m := g.N(), g.M()
		off, nbrV, nbrE := g.Adjacency()
		if len(off) != n+1 || off[0] != 0 || int(off[n]) != 2*m || len(nbrE) != 2*m || len(nbrV) != 2*m {
			t.Fatalf("%s: n=%d m=%d but off=%v, %d edge slots, %d neighbor slots", name, n, m, off, len(nbrE), len(nbrV))
		}
		for v := 0; v < n; v++ {
			inc := g.IncidentEdges(v)
			if len(inc) != g.Degree(v) {
				t.Fatalf("%s: IncidentEdges(%d) has %d edges, Degree says %d", name, v, len(inc), g.Degree(v))
			}
			for i, e := range inc {
				if i > 0 && inc[i-1] >= e {
					t.Fatalf("%s: IncidentEdges(%d) = %v, not ascending", name, v, inc)
				}
				s := int(off[v]) + i
				if ed := g.EdgeAt(int(e)); ed.U != int32(v) && ed.V != int32(v) {
					t.Fatalf("%s: slot %d of vertex %d holds edge %d = %v, not incident", name, s, v, e, ed)
				}
				if nbrV[s] != g.Other(int(e), int32(v)) {
					t.Fatalf("%s: nbrV[%d] = %d, Other(%d, %d) = %d", name, s, nbrV[s], e, v, g.Other(int(e), int32(v)))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := randomBinGraph(rng, trial%2 == 0)
		laidOut("Build", g)
		dec, _, err := DecodeBinary(g.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		laidOut("DecodeBinary", dec)
		laidOut("Clone", g.Clone())
		laidOut("Skeleton", g.Skeleton())
		if g.M() == 0 {
			continue
		}
		// Fragment edges in descending host order: Extract numbers its
		// edges by position in f.Edges, not by host index.
		var edges []int32
		for e := g.M() - 1; e >= 0; e -= 1 + rng.Intn(2) {
			edges = append(edges, int32(e))
		}
		sub, _, _ := Fragment{Host: g, Edges: edges}.Extract()
		laidOut("Extract", sub)
	}
	laidOut("empty Build", NewBuilder(0, 0).MustBuild())
}
