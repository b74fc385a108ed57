package partition

import "sort"

// The paper's alternative solvers (§5) and the set helpers the tests
// check every solver with. The search runs Greedy only; these stay as its
// references.

// Weight sums the weights of a node set.
func (g *Graph) Weight(set []int32) float64 {
	w := 0.0
	for _, v := range set {
		w += g.Weights[v]
	}
	return w
}

// IsIndependent reports whether no two nodes of the set are adjacent.
func (g *Graph) IsIndependent(set []int32) bool {
	in := map[int32]bool{}
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.Adj[v] {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// EnhancedGreedy generalizes Greedy by selecting a maximum-weight
// independent k-set per round (paper Theorem 3, optimality ratio c/k in
// O(c^k n^k) time). The chosen set may have fewer than k nodes when the
// remaining graph is small or dense. k <= 0 behaves like k == 1.
func EnhancedGreedy(g *Graph, k int) []int32 {
	if k <= 1 {
		return Greedy(g)
	}
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	var out []int32
	for {
		bestSet := maxIndependentKSet(g, alive, k)
		if len(bestSet) == 0 {
			return out
		}
		out = append(out, bestSet...)
		for _, v := range bestSet {
			alive[v] = false
			for _, u := range g.Adj[v] {
				alive[u] = false
			}
		}
	}
}

// maxIndependentKSet enumerates independent subsets of alive nodes of size
// at most k, returning the one with maximum weight (largest weight wins;
// among equal weights the lexicographically smallest id sequence).
func maxIndependentKSet(g *Graph, alive []bool, k int) []int32 {
	var best []int32
	bestW := 0.0
	var cur []int32
	var rec func(start int, w float64)
	rec = func(start int, w float64) {
		if len(cur) > 0 && w > bestW {
			bestW = w
			best = append(best[:0], cur...)
		}
		if len(cur) == k {
			return
		}
		for v := start; v < g.N(); v++ {
			if !alive[v] {
				continue
			}
			ok := true
			for _, u := range cur {
				if adjacent(g, int32(v), u) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur = append(cur, int32(v))
			rec(v+1, w+g.Weights[v])
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)
	return best
}

func adjacent(g *Graph, a, b int32) bool {
	for _, u := range g.Adj[a] {
		if u == b {
			return true
		}
	}
	return false
}

// Exact computes a maximum weighted independent set by branch and bound:
// nodes in descending weight order, bounding by the sum of remaining
// weights. Exponential in the worst case, which query-sized instances
// never reach.
func Exact(g *Graph) []int32 {
	n := g.N()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return g.Weights[order[i]] > g.Weights[order[j]] })
	// suffix[i] = total weight of order[i:], the optimistic bound.
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + g.Weights[order[i]]
	}
	blocked := make([]int, n)
	var best, cur []int32
	bestW, curW := -1.0, 0.0
	var rec func(i int)
	rec = func(i int) {
		if curW > bestW {
			bestW = curW
			best = append(best[:0], cur...)
		}
		if i == n || curW+suffix[i] <= bestW {
			return
		}
		v := order[i]
		if blocked[v] == 0 {
			// Branch 1: take v.
			for _, u := range g.Adj[v] {
				blocked[u]++
			}
			cur = append(cur, v)
			curW += g.Weights[v]
			rec(i + 1)
			curW -= g.Weights[v]
			cur = cur[:len(cur)-1]
			for _, u := range g.Adj[v] {
				blocked[u]--
			}
		}
		// Branch 2: skip v.
		rec(i + 1)
	}
	rec(0)
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best
}

// MaxIndependentSetSize returns c = max |S| over independent sets, the
// constant in the paper's optimality ratios. Exponential.
func MaxIndependentSetSize(g *Graph) int {
	unit := &Graph{Weights: make([]float64, g.N()), Adj: g.Adj}
	for i := range unit.Weights {
		unit.Weights[i] = 1
	}
	return len(Exact(unit))
}
