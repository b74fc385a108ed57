// Package partition solves the index-based partition problem of the PIS
// paper (§5): choose vertex-disjoint indexed fragments of the query graph
// maximizing total selectivity. The problem reduces to Maximum Weighted
// Independent Set on the overlapping-relation graph (paper Theorem 1,
// NP-hard); the search uses the paper's Greedy (Algorithm 1, 1/c
// optimality ratio). The paper's other solvers, the k-set greedy of
// Theorem 3 (c/k ratio) and an exact branch and bound, live in the
// package's tests, where the exact one is the reference for Greedy.
package partition

// Graph is an overlapping-relation graph: node i is a fragment with weight
// Weights[i]; Adj[i] lists the fragments sharing a vertex with it.
type Graph struct {
	Weights []float64
	Adj     [][]int32
}

// NewOverlapGraph builds the overlapping-relation graph from the vertex
// sets of the candidate fragments (each sorted ascending).
func NewOverlapGraph(vertexSets [][]int32, weights []float64) *Graph {
	n := len(vertexSets)
	if len(weights) != n {
		panic("partition: weights/vertexSets length mismatch")
	}
	g := &Graph{Weights: append([]float64(nil), weights...), Adj: make([][]int32, n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sortedIntersect(vertexSets[i], vertexSets[j]) {
				g.Adj[i] = append(g.Adj[i], int32(j))
				g.Adj[j] = append(g.Adj[j], int32(i))
			}
		}
	}
	return g
}

func sortedIntersect(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// N returns the node count.
func (g *Graph) N() int { return len(g.Weights) }

// Greedy is Algorithm 1 of the paper: repeatedly take the maximum-weight
// remaining node and remove its neighbors. Ties break toward the smaller
// node id so results are deterministic. Runs in O(c·n) scans.
func Greedy(g *Graph) []int32 {
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	var out []int32
	for {
		best := int32(-1)
		for v := 0; v < g.N(); v++ {
			if alive[v] && (best < 0 || g.Weights[v] > g.Weights[best]) {
				best = int32(v)
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, best)
		alive[best] = false
		for _, u := range g.Adj[best] {
			alive[u] = false
		}
	}
}
