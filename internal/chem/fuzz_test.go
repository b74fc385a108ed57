package chem

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"pis/internal/graph"
)

// A reader may allocate allocPerByte per input byte beyond readerOverhead,
// which covers its line scanner's initial buffer and fixed state.
const (
	allocPerByte   = 64
	readerOverhead = 256 << 10
)

// readBounded runs read over input and fails unless it allocated within
// the bound above and returned an error or graphs no larger than the input
// in vertices and edges. It returns read's error.
func readBounded(t *testing.T, input []byte, read func(io.Reader, string) ([]*graph.Graph, error)) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gs, err := read(bytes.NewReader(input), "fuzz")
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(allocPerByte*len(input)+readerOverhead) {
		t.Fatalf("reading %d bytes allocated %d", len(input), alloc)
	}
	for i, g := range gs {
		if err == nil && (g.N() > len(input) || g.M() > len(input)) {
			t.Fatalf("molecule %d of a %d-byte input has %d atoms and %d bonds", i, len(input), g.N(), g.M())
		}
	}
	return err
}

// TestSDFCountBombBounded: a counts line declaring 300 million atoms in a
// 19-byte input is an error, and reading it allocates no more than the
// input could hold. Sized by the declared count, it once allocated 1.7 GiB
// before failing.
func TestSDFCountBombBounded(t *testing.T) {
	if err := readBounded(t, []byte("m\n\n\n   300000000 5\n"), ReadSDF); err == nil {
		t.Fatal("a record declaring 300 million atoms and holding none parsed")
	}
}

// TestSMILESChainBounded: a 3,976-byte line holding one chain of 3,975
// nitrogens, which FuzzSMILES found, reads within the allocation bound.
// Its parser once grew its atom and bond lists by doubling and its
// builder kept a map of every bond, some 595 KB against a bound of 517 KB.
func TestSMILESChainBounded(t *testing.T) {
	line := append(bytes.Repeat([]byte("N"), 3975), '\n')
	if err := readBounded(t, line, ReadSMILES); err != nil {
		t.Fatal(err)
	}
}

// FuzzSDF feeds arbitrary bytes to the SD reader: an error, or molecules
// no larger than the input, and never an allocation the input cannot
// account for.
func FuzzSDF(f *testing.F) {
	f.Add([]byte(ethanolRecord + benzeneRecord))
	f.Add([]byte(benzeneRecord))
	f.Add([]byte("m\n\n\n   300000000 5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		readBounded(t, data, ReadSDF)
	})
}

// FuzzSMILES is FuzzSDF for the SMILES reader.
func FuzzSMILES(f *testing.F) {
	f.Add([]byte(screenSMILES))
	f.Add([]byte("C%12CC%12\n[NH4+]\nc1ccc2ccccc2c1 naphthalene\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		readBounded(t, data, ReadSMILES)
	})
}
