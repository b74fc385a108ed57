package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The codec implements the line-oriented graph transaction format used by
// gSpan-era tools, extended with optional weights:
//
//	t # <id>
//	v <vertex-id> <label> [weight]
//	e <u> <v> <label> [weight]
//
// Vertex ids within one graph must be 0..n-1 in order of appearance.

// WriteDB writes graphs in transaction format. Graph ids are positional.
func WriteDB(w io.Writer, graphs []*Graph) error {
	bw := bufio.NewWriter(w)
	for i, g := range graphs {
		fmt.Fprintf(bw, "t # %d\n", i)
		for v := 0; v < g.N(); v++ {
			if g.vweights != nil {
				fmt.Fprintf(bw, "v %d %d %g\n", v, g.VLabelAt(v), g.VWeightAt(v))
			} else {
				fmt.Fprintf(bw, "v %d %d\n", v, g.VLabelAt(v))
			}
		}
		for _, e := range g.Edges() {
			if g.vweights != nil || e.Weight != 0 {
				fmt.Fprintf(bw, "e %d %d %d %g\n", e.U, e.V, e.Label, e.Weight)
			} else {
				fmt.Fprintf(bw, "e %d %d %d\n", e.U, e.V, e.Label)
			}
		}
	}
	return bw.Flush()
}

// ReadDB parses a transaction-format stream into graphs.
func ReadDB(r io.Reader) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var graphs []*Graph
	var b *Builder
	line := 0
	flush := func() error {
		if b == nil {
			return nil
		}
		g, err := b.Build()
		if err != nil {
			return fmt.Errorf("graph %d: %w", len(graphs), err)
		}
		graphs = append(graphs, g)
		b = nil
		return nil
	}
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		switch fields[0] {
		case "t":
			if err := flush(); err != nil {
				return nil, err
			}
			b = NewBuilder(32, 32)
		case "v":
			if b == nil {
				return nil, fmt.Errorf("line %d: vertex before 't'", line)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed vertex", line)
			}
			id, err1 := strconv.Atoi(fields[1])
			lab, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || id != b.N() {
				return nil, fmt.Errorf("line %d: bad vertex declaration %q", line, sc.Text())
			}
			if len(fields) >= 4 {
				w, err := strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad vertex weight: %v", line, err)
				}
				b.AddWeightedVertex(VLabel(lab), w)
			} else {
				b.AddVertex(VLabel(lab))
			}
		case "e":
			if b == nil {
				return nil, fmt.Errorf("line %d: edge before 't'", line)
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("line %d: malformed edge", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			lab, err3 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("line %d: bad edge declaration %q", line, sc.Text())
			}
			w := 0.0
			if len(fields) >= 5 {
				var err error
				w, err = strconv.ParseFloat(fields[4], 64)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad edge weight: %v", line, err)
				}
			}
			b.AddWeightedEdge(int32(u), int32(v), ELabel(lab), w)
		default:
			return nil, fmt.Errorf("line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return graphs, nil
}
