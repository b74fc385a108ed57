// Package distance defines the superimposed distance measures of the PIS
// paper: a Metric scores the cost of superimposing one labeled vertex/edge
// onto another, and whole-graph distances are sums of per-element costs
// minimized over superpositions (the minimization lives in internal/iso).
//
// Two families from the paper are provided: mutation distance (categorical
// labels under a mutation score matrix, Example 1) and linear mutation
// distance (numeric weights, Example 3).
package distance

import (
	"fmt"
	"math"

	"pis/internal/graph"
)

// Metric scores the superposition of single elements. Costs must be
// non-negative and zero on identical elements; those two properties are all
// PIS needs for the partition lower bound (Eq. 2 of the paper) to hold.
type Metric interface {
	// VertexCost is the price of superimposing a query vertex with label a
	// and weight wa onto a target vertex with label b and weight wb.
	VertexCost(a graph.VLabel, wa float64, b graph.VLabel, wb float64) float64
	// EdgeCost is the price of superimposing a query edge onto a target edge.
	EdgeCost(a graph.ELabel, wa float64, b graph.ELabel, wb float64) float64
}

// VertexBlind is the optional interface a Metric implements to declare
// that VertexCost is identically zero. Indexes use it to drop vertex
// positions from stored sequences entirely, which keeps per-class tries
// dramatically smaller on vertex-label-free workloads.
type VertexBlind interface {
	VertexBlind() bool
}

// IgnoresVertices reports whether the metric declares a zero vertex cost.
func IgnoresVertices(m Metric) bool {
	vb, ok := m.(VertexBlind)
	return ok && vb.VertexBlind()
}

// WeightKeyed is the optional interface a Metric implements to declare
// that its costs depend on element weights only, never on labels. Indexes
// then store a fragment's weights instead of its labels, and price a
// stored fragment by calling the metric with zero labels.
type WeightKeyed interface {
	WeightKeyed() bool
}

// ReadsWeights reports whether the metric declares itself weight-keyed.
func ReadsWeights(m Metric) bool {
	wk, ok := m.(WeightKeyed)
	return ok && wk.WeightKeyed()
}

// CostFloor is the optional interface a Metric implements to declare
// lower bounds on the cost of superimposing two elements whose labels
// differ. The fingerprint prescreen multiplies label-multiset deficits by
// these floors to lower-bound the whole-graph distance without searching
// for a superposition; a floor of 0 (or not implementing the interface)
// simply disables that part of the prescreen — always safe, never wrong.
type CostFloor interface {
	// MinVertexCost lower-bounds VertexCost(a, *, b, *) over all a != b.
	MinVertexCost() float64
	// MinEdgeCost lower-bounds EdgeCost(a, *, b, *) over all a != b.
	MinEdgeCost() float64
}

// CostFloors returns the metric's declared label-mismatch cost floors, or
// (0, 0) when it declares none. Weight-based metrics like Linear have no
// positive floor — two different labels can cost arbitrarily little — so
// they correctly report zeros by not implementing CostFloor.
func CostFloors(m Metric) (vertex, edge float64) {
	cf, ok := m.(CostFloor)
	if !ok {
		return 0, 0
	}
	return cf.MinVertexCost(), cf.MinEdgeCost()
}

// EdgeMutation is the measure used in the paper's experiments: each
// mismatched edge label costs 1 and vertex labels are ignored.
type EdgeMutation struct{}

// VertexCost always returns 0: the experiments ignore vertex labels.
func (EdgeMutation) VertexCost(graph.VLabel, float64, graph.VLabel, float64) float64 { return 0 }

// VertexBlind implements VertexBlind: vertex labels never cost anything.
func (EdgeMutation) VertexBlind() bool { return true }

// EdgeCost returns 1 when the edge labels differ, 0 otherwise.
func (EdgeMutation) EdgeCost(a graph.ELabel, _ float64, b graph.ELabel, _ float64) float64 {
	return boolToFloat(a != b)
}

// MinVertexCost implements CostFloor: vertex labels never cost anything.
func (EdgeMutation) MinVertexCost() float64 { return 0 }

// MinEdgeCost implements CostFloor: a mismatched edge label costs exactly 1.
func (EdgeMutation) MinEdgeCost() float64 { return 1 }

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// FullMutation scores both vertex and edge label mismatches at unit cost.
type FullMutation struct{}

// VertexCost returns 1 when the vertex labels differ.
func (FullMutation) VertexCost(a graph.VLabel, _ float64, b graph.VLabel, _ float64) float64 {
	return boolToFloat(a != b)
}

// EdgeCost returns 1 when the edge labels differ.
func (FullMutation) EdgeCost(a graph.ELabel, _ float64, b graph.ELabel, _ float64) float64 {
	return boolToFloat(a != b)
}

// MinVertexCost implements CostFloor.
func (FullMutation) MinVertexCost() float64 { return 1 }

// MinEdgeCost implements CostFloor.
func (FullMutation) MinEdgeCost() float64 { return 1 }

// Matrix is a mutation score matrix (Definition of MD in the paper): the
// cost of relabeling is looked up per ordered label pair. Missing entries
// default to 0 for equal labels and DefaultCost otherwise.
type Matrix struct {
	VertexScores map[[2]graph.VLabel]float64
	EdgeScores   map[[2]graph.ELabel]float64
	DefaultCost  float64
}

// NewMatrix returns a Matrix with unit default cost and empty score tables.
func NewMatrix() *Matrix {
	return &Matrix{
		VertexScores: map[[2]graph.VLabel]float64{},
		EdgeScores:   map[[2]graph.ELabel]float64{},
		DefaultCost:  1,
	}
}

// SetVertexScore records a symmetric vertex relabeling cost.
func (m *Matrix) SetVertexScore(a, b graph.VLabel, cost float64) {
	m.VertexScores[[2]graph.VLabel{a, b}] = cost
	m.VertexScores[[2]graph.VLabel{b, a}] = cost
}

// SetEdgeScore records a symmetric edge relabeling cost.
func (m *Matrix) SetEdgeScore(a, b graph.ELabel, cost float64) {
	m.EdgeScores[[2]graph.ELabel{a, b}] = cost
	m.EdgeScores[[2]graph.ELabel{b, a}] = cost
}

// VertexCost implements Metric.
func (m *Matrix) VertexCost(a graph.VLabel, _ float64, b graph.VLabel, _ float64) float64 {
	if a == b {
		return 0
	}
	if c, ok := m.VertexScores[[2]graph.VLabel{a, b}]; ok {
		return c
	}
	return m.DefaultCost
}

// EdgeCost implements Metric.
func (m *Matrix) EdgeCost(a graph.ELabel, _ float64, b graph.ELabel, _ float64) float64 {
	if a == b {
		return 0
	}
	if c, ok := m.EdgeScores[[2]graph.ELabel{a, b}]; ok {
		return c
	}
	return m.DefaultCost
}

// MinVertexCost implements CostFloor: the smallest explicit vertex score,
// or DefaultCost when the table would fall through to it. Entries keyed by
// identical labels are ignored — same-label superpositions are free by
// definition and never a mismatch.
func (m *Matrix) MinVertexCost() float64 {
	min := m.DefaultCost
	for k, v := range m.VertexScores {
		if k[0] != k[1] && v < min {
			min = v
		}
	}
	return min
}

// MinEdgeCost implements CostFloor; see MinVertexCost.
func (m *Matrix) MinEdgeCost() float64 {
	min := m.DefaultCost
	for k, v := range m.EdgeScores {
		if k[0] != k[1] && v < min {
			min = v
		}
	}
	return min
}

// Validate reports whether the matrix satisfies the properties PIS relies
// on: every cost a non-negative number, so a partial sum is a lower bound.
func (m *Matrix) Validate() error {
	for k, v := range m.VertexScores {
		if !(v >= 0) {
			return fmt.Errorf("distance: vertex score %v for %v is negative or NaN", v, k)
		}
	}
	for k, v := range m.EdgeScores {
		if !(v >= 0) {
			return fmt.Errorf("distance: edge score %v for %v is negative or NaN", v, k)
		}
	}
	if !(m.DefaultCost >= 0) {
		return fmt.Errorf("distance: default cost %v is negative or NaN", m.DefaultCost)
	}
	return nil
}

// Linear is the linear mutation distance LD: |w - w'| summed over
// superimposed vertices and edges. Labels are ignored; only weights count.
type Linear struct {
	// IncludeVertices controls whether vertex weights participate; the
	// paper's Example 3 uses edge weights only.
	IncludeVertices bool
}

// VertexCost implements Metric.
func (l Linear) VertexCost(_ graph.VLabel, wa float64, _ graph.VLabel, wb float64) float64 {
	if !l.IncludeVertices {
		return 0
	}
	return math.Abs(wa - wb)
}

// VertexBlind implements VertexBlind: true when vertex weights are
// excluded from the measure.
func (l Linear) VertexBlind() bool { return !l.IncludeVertices }

// WeightKeyed implements WeightKeyed: labels never enter the measure.
func (Linear) WeightKeyed() bool { return true }

// EdgeCost implements Metric.
func (Linear) EdgeCost(_ graph.ELabel, wa float64, _ graph.ELabel, wb float64) float64 {
	return math.Abs(wa - wb)
}

// Infinite is the sentinel distance for "no superposition exists"; the
// paper writes d(g,G) = ∞ when g ⊄ G.
const Infinite = math.MaxFloat64

// IsInfinite reports whether d is the no-superposition sentinel.
func IsInfinite(d float64) bool { return d == Infinite }
