package chem

import (
	"io"

	"pis/internal/graph"
)

// ReadSDF parses every record of an SD stream; name labels errors.
func ReadSDF(r io.Reader, name string) ([]*graph.Graph, error) {
	return readAll(NewSDFReader(r, name).Next)
}

// ReadSMILES parses every line of a SMILES stream; name labels errors.
func ReadSMILES(r io.Reader, name string) ([]*graph.Graph, error) {
	return readAll(NewSMILESReader(r, name).Next)
}

// readAll drains a reader's Next up to io.EOF.
func readAll(next func() (*graph.Graph, error)) ([]*graph.Graph, error) {
	var out []*graph.Graph
	for {
		g, err := next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
}
