package distance

import (
	"math"
	"testing"

	"pis/internal/graph"
)

func TestEdgeMutation(t *testing.T) {
	m := EdgeMutation{}
	if m.EdgeCost(1, 0, 1, 0) != 0 {
		t.Error("equal labels should cost 0")
	}
	if m.EdgeCost(1, 0, 2, 0) != 1 {
		t.Error("differing labels should cost 1")
	}
	if m.VertexCost(1, 0, 2, 0) != 0 {
		t.Error("vertex labels must be ignored")
	}
	if !IgnoresVertices(m) {
		t.Error("EdgeMutation should declare itself vertex-blind")
	}
}

func TestFullMutation(t *testing.T) {
	m := FullMutation{}
	if m.VertexCost(1, 0, 2, 0) != 1 || m.VertexCost(3, 0, 3, 0) != 0 {
		t.Error("vertex mutation costs wrong")
	}
	if m.EdgeCost(1, 0, 2, 0) != 1 || m.EdgeCost(3, 0, 3, 0) != 0 {
		t.Error("edge mutation costs wrong")
	}
	if IgnoresVertices(m) {
		t.Error("FullMutation is not vertex-blind")
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix()
	m.SetEdgeScore(1, 2, 0.25)
	m.SetVertexScore(3, 4, 0.5)
	if got := m.EdgeCost(1, 0, 2, 0); got != 0.25 {
		t.Errorf("edge score = %v", got)
	}
	if got := m.EdgeCost(2, 0, 1, 0); got != 0.25 {
		t.Errorf("edge score not symmetric: %v", got)
	}
	if got := m.EdgeCost(1, 0, 9, 0); got != 1 {
		t.Errorf("default cost = %v", got)
	}
	if got := m.EdgeCost(5, 0, 5, 0); got != 0 {
		t.Errorf("identical labels cost %v", got)
	}
	if got := m.VertexCost(3, 0, 4, 0); got != 0.5 {
		t.Errorf("vertex score = %v", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	m.SetEdgeScore(7, 8, -1)
	if err := m.Validate(); err == nil {
		t.Error("negative score accepted")
	}
}

func TestMatrixValidateVertexAndDefault(t *testing.T) {
	m := NewMatrix()
	m.SetVertexScore(1, 2, -0.5)
	if err := m.Validate(); err == nil {
		t.Error("negative vertex score accepted")
	}
	m = NewMatrix()
	m.DefaultCost = -1
	if err := m.Validate(); err == nil {
		t.Error("negative default cost accepted")
	}
}

// TestMatrixValidateNaN: a NaN cost compares false against everything, so
// it would slip past a "< 0" check and silently disable every cut.
func TestMatrixValidateNaN(t *testing.T) {
	for name, m := range map[string]*Matrix{"vertex": NewMatrix(), "edge": NewMatrix(), "default": NewMatrix()} {
		switch name {
		case "vertex":
			m.SetVertexScore(1, 2, math.NaN())
		case "edge":
			m.SetEdgeScore(1, 2, math.NaN())
		default:
			m.DefaultCost = math.NaN()
		}
		if err := m.Validate(); err == nil {
			t.Errorf("NaN %s cost accepted", name)
		}
	}
}

func TestLinear(t *testing.T) {
	l := Linear{}
	if got := l.EdgeCost(0, 1.5, 0, 2.75); got != 1.25 {
		t.Errorf("edge cost = %v", got)
	}
	if got := l.VertexCost(0, 1, 0, 5); got != 0 {
		t.Errorf("vertex cost should be 0 when excluded: %v", got)
	}
	if !IgnoresVertices(l) {
		t.Error("edges-only Linear should be vertex-blind")
	}
	lv := Linear{IncludeVertices: true}
	if got := lv.VertexCost(0, 1, 0, 5); got != 4 {
		t.Errorf("vertex cost = %v", got)
	}
	if IgnoresVertices(lv) {
		t.Error("vertex-inclusive Linear must not be vertex-blind")
	}
}

func TestInfiniteSentinel(t *testing.T) {
	if !IsInfinite(Infinite) {
		t.Error("Infinite not recognized")
	}
	if IsInfinite(1e300) {
		t.Error("finite value reported infinite")
	}
}

// Metric contract: zero on identical elements, non-negative everywhere.
// This is exactly what the Eq. 2 lower bound requires.
func TestMetricContract(t *testing.T) {
	metrics := []Metric{EdgeMutation{}, FullMutation{}, NewMatrix(), Linear{}, Linear{IncludeVertices: true}}
	for i, m := range metrics {
		for a := graph.ELabel(0); a < 4; a++ {
			if m.EdgeCost(a, 1.5, a, 1.5) != 0 {
				t.Errorf("metric %d: identical edges cost non-zero", i)
			}
			for b := graph.ELabel(0); b < 4; b++ {
				if m.EdgeCost(a, 1, b, 2) < 0 {
					t.Errorf("metric %d: negative edge cost", i)
				}
			}
		}
		for a := graph.VLabel(0); a < 4; a++ {
			if m.VertexCost(a, 2.5, a, 2.5) != 0 {
				t.Errorf("metric %d: identical vertices cost non-zero", i)
			}
		}
	}
}
