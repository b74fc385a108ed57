// Package chem generates the synthetic stand-in for the NCI/NIH AIDS
// antiviral screen dataset used in the paper's experiments (§7). The real
// 44k-compound SD file is not available offline, so this generator builds
// molecule-like labeled graphs with the properties the PIS dynamics depend
// on:
//
//   - carbon-dominated vertex labels and single-bond-dominated edge labels,
//     so structures repeat massively across the database and structure-only
//     pruning is weak — the regime the paper stresses;
//   - fused 5/6-ring systems plus chains and branches, mirroring organic
//     skeletons (the paper's molecules average 25 vertices / 27 edges);
//   - a heavy-tailed size distribution reaching beyond 200 vertices like
//     the paper's largest compound (214 vertices / 217 edges).
//
// All generation is deterministic per seed.
package chem

import (
	"math"
	"math/rand"

	"pis/internal/graph"
)

// Atom labels. Distribution is carbon-heavy like the screen data.
const (
	AtomC graph.VLabel = iota
	AtomN
	AtomO
	AtomS
	AtomP
	AtomHalogen
)

// Bond labels. The paper's experiments ignore vertex labels and mutate
// edge labels, so the bond distribution drives distance selectivity.
const (
	BondSingle graph.ELabel = iota
	BondDouble
	BondAromatic
	BondTriple
)

// Config controls generation.
type Config struct {
	// Seed drives all randomness. Same seed, same database.
	Seed int64
	// MeanVertices is the average molecule size (default 25, the paper's).
	MeanVertices int
	// SizeSigma is the lognormal shape parameter for sizes (default 0.45).
	SizeSigma float64
	// MinVertices / MaxVertices clip the size distribution (defaults 8 and
	// 220, matching the paper's 214-vertex maximum).
	MinVertices, MaxVertices int
	// HeteroatomRate is the probability a vertex is not carbon (default 0.15).
	HeteroatomRate float64
	// Weighted attaches numeric weights (bond lengths and atomic masses)
	// for linear-mutation-distance experiments.
	Weighted bool
}

func (c Config) normalized() Config {
	if c.MeanVertices <= 0 {
		c.MeanVertices = 25
	}
	if c.SizeSigma <= 0 {
		c.SizeSigma = 0.45
	}
	if c.MinVertices <= 0 {
		c.MinVertices = 8
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 220
	}
	if c.MaxVertices < c.MinVertices {
		c.MaxVertices = c.MinVertices
	}
	if c.HeteroatomRate <= 0 {
		c.HeteroatomRate = 0.15
	}
	return c
}

// Generate builds n molecule-like graphs.
func Generate(n int, cfg Config) []*graph.Graph {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = generateOne(rng, cfg)
	}
	return out
}

// mol is a molecule under construction.
type mol struct {
	atoms  []graph.VLabel
	deg    []int
	bonds  [][3]int32 // u, v, label
	seen   map[[2]int32]bool
	rng    *rand.Rand
	cfg    Config
	target int
}

func (m *mol) addAtom() int32 {
	l := AtomC
	if m.rng.Float64() < m.cfg.HeteroatomRate {
		switch m.rng.Intn(10) {
		case 0, 1, 2, 3:
			l = AtomO
		case 4, 5, 6:
			l = AtomN
		case 7:
			l = AtomS
		case 8:
			l = AtomP
		default:
			l = AtomHalogen
		}
	}
	m.atoms = append(m.atoms, l)
	m.deg = append(m.deg, 0)
	return int32(len(m.atoms) - 1)
}

func (m *mol) addBond(u, v int32, label graph.ELabel) bool {
	if u == v {
		return false
	}
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	if m.seen[[2]int32{a, b}] {
		return false
	}
	m.seen[[2]int32{a, b}] = true
	m.bonds = append(m.bonds, [3]int32{u, v, int32(label)})
	m.deg[u]++
	m.deg[v]++
	return true
}

// chainBond picks an open-chain bond label: mostly single.
func (m *mol) chainBond() graph.ELabel {
	switch r := m.rng.Intn(100); {
	case r < 80:
		return BondSingle
	case r < 94:
		return BondDouble
	default:
		return BondTriple
	}
}

// attachRing grows a ring, fused on an existing edge when possible,
// otherwise attached at a vertex. Six- and five-rings dominate as in
// organic chemistry; rarer sizes (3, 4, 7) create the uncommon skeletons
// that make some substructure queries highly selective — the real screen
// data has those too (epoxides, beta-lactams, azepines).
func (m *mol) attachRing(anchor int32) {
	var size int
	switch r := m.rng.Intn(20); {
	case r < 11:
		size = 6
	case r < 16:
		size = 5
	case r < 17:
		size = 3
	case r < 18:
		size = 4
	default:
		size = 7
	}
	aromatic := size == 6 && m.rng.Intn(100) < 55 || size == 5 && m.rng.Intn(100) < 15
	bond := func() graph.ELabel {
		if aromatic {
			return BondAromatic
		}
		// Alicyclic rings are mostly single with occasional double bonds.
		if m.rng.Intn(10) == 0 {
			return BondDouble
		}
		return BondSingle
	}
	// Fused: share the anchor and one of its neighbors when degrees allow.
	var shared []int32
	if m.deg[anchor] >= 1 && m.deg[anchor] <= 2 && m.rng.Intn(2) == 0 {
		for _, b := range m.bonds {
			var other int32 = -1
			if b[0] == anchor {
				other = b[1]
			} else if b[1] == anchor {
				other = b[0]
			}
			if other >= 0 && m.deg[other] <= 2 {
				shared = []int32{anchor, other}
				break
			}
		}
	}
	if shared == nil {
		shared = []int32{anchor}
	}
	ring := append([]int32(nil), shared...)
	for len(ring) < size {
		ring = append(ring, m.addAtom())
	}
	for i := 0; i < size; i++ {
		u, v := ring[i], ring[(i+1)%size]
		if len(shared) == 2 && ((u == shared[0] && v == shared[1]) || (u == shared[1] && v == shared[0])) {
			continue // the fused edge already exists
		}
		m.addBond(u, v, bond())
	}
}

// attachChain grows a short open chain from the anchor.
func (m *mol) attachChain(anchor int32) {
	length := 1 + m.rng.Intn(4)
	prev := anchor
	for i := 0; i < length && len(m.atoms) < m.target; i++ {
		nv := m.addAtom()
		m.addBond(prev, nv, m.chainBond())
		prev = nv
	}
}

// openSite returns a random vertex with chemical valence to spare.
func (m *mol) openSite() int32 {
	for tries := 0; tries < 32; tries++ {
		v := int32(m.rng.Intn(len(m.atoms)))
		if m.deg[v] < 4 {
			return v
		}
	}
	// Degenerate: everything saturated; take the last atom regardless.
	return int32(len(m.atoms) - 1)
}

func generateOne(rng *rand.Rand, cfg Config) *graph.Graph {
	target := int(math.Exp(math.Log(float64(cfg.MeanVertices)) - cfg.SizeSigma*cfg.SizeSigma/2 +
		rng.NormFloat64()*cfg.SizeSigma))
	target = min(max(target, cfg.MinVertices), cfg.MaxVertices)
	m := &mol{seen: map[[2]int32]bool{}, rng: rng, cfg: cfg, target: target}

	// Seed unit: usually a ring, sometimes a chain.
	first := m.addAtom()
	if rng.Intn(10) < 7 {
		m.attachRing(first)
	} else {
		m.attachChain(first)
	}
	for len(m.atoms) < target {
		anchor := m.openSite()
		switch r := rng.Intn(10); {
		case r < 4:
			m.attachRing(anchor)
		case r < 9:
			m.attachChain(anchor)
		default: // occasional extra bond closing a larger ring
			u, v := m.openSite(), m.openSite()
			m.addBond(u, v, m.chainBond())
		}
	}

	b := graph.NewBuilder(len(m.atoms), len(m.bonds))
	for i, a := range m.atoms {
		if cfg.Weighted {
			b.AddWeightedVertex(a, atomMass(a)+rng.NormFloat64()*0.05)
		} else {
			b.AddVertex(a)
		}
		_ = i
	}
	for _, bd := range m.bonds {
		if cfg.Weighted {
			b.AddWeightedEdge(bd[0], bd[1], graph.ELabel(bd[2]),
				bondLength(graph.ELabel(bd[2]))+rng.NormFloat64()*0.03)
		} else {
			b.AddEdge(bd[0], bd[1], graph.ELabel(bd[2]))
		}
	}
	return b.MustBuild()
}

// atomMass returns an approximate relative atomic mass for weights.
func atomMass(a graph.VLabel) float64 {
	switch a {
	case AtomC:
		return 12
	case AtomN:
		return 14
	case AtomO:
		return 16
	case AtomS:
		return 32
	case AtomP:
		return 31
	default:
		return 35
	}
}

// bondLength returns a typical bond length in Ångström for weights.
func bondLength(b graph.ELabel) float64 {
	switch b {
	case BondSingle:
		return 1.54
	case BondDouble:
		return 1.34
	case BondAromatic:
		return 1.40
	default:
		return 1.20
	}
}

// SampleQueries draws count connected query graphs of exactly m edges from
// the database, as the paper does ("query graphs are directly sampled from
// the database"). Graphs too small to yield m connected edges are skipped.
func SampleQueries(db []*graph.Graph, count, m int, seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*graph.Graph, 0, count)
	for len(out) < count {
		g := db[rng.Intn(len(db))]
		edges := graph.RandomConnectedSubgraph(g, m, rng.Intn)
		if edges == nil {
			continue
		}
		sub, _, _ := graph.Fragment{Host: g, Edges: edges}.Extract()
		out = append(out, sub)
	}
	return out
}

// Stats summarizes a generated database for reporting.
type Stats struct {
	Graphs      int
	AvgVertices float64
	AvgEdges    float64
	MaxVertices int
	MaxEdges    int
	BondCounts  map[graph.ELabel]int
	AtomCounts  map[graph.VLabel]int
}

// Summarize computes database statistics.
func Summarize(db []*graph.Graph) Stats {
	s := Stats{
		Graphs:     len(db),
		BondCounts: map[graph.ELabel]int{},
		AtomCounts: map[graph.VLabel]int{},
	}
	for _, g := range db {
		s.AvgVertices += float64(g.N())
		s.AvgEdges += float64(g.M())
		s.MaxVertices, s.MaxEdges = max(s.MaxVertices, g.N()), max(s.MaxEdges, g.M())
		for v := 0; v < g.N(); v++ {
			s.AtomCounts[g.VLabelAt(v)]++
		}
		for _, e := range g.Edges() {
			s.BondCounts[e.Label]++
		}
	}
	if len(db) > 0 {
		s.AvgVertices /= float64(len(db))
		s.AvgEdges /= float64(len(db))
	}
	return s
}
