package graph

// ComputeInvariants is the uncached annotation pass, for the external
// benchmark: Graph.Invariants computes once per graph.
func ComputeInvariants(g *Graph) int { return 4 * len(computeInvariants(g)) }

// LabelBucket is labelBucket, for the external fingerprint tests.
func LabelBucket(l, n uint32) uint32 { return labelBucket(l, n) }
