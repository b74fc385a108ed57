package chem

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"pis/internal/graph"
)

// A reader may allocate allocPerByte per input byte and allocPerMolecule
// per molecule it returns beyond readerOverhead, which covers its line
// scanner's initial buffer and fixed state. The molecule term is what a
// one-atom molecule costs whatever its line's length: 100,000 lines of
// "C" (200,000 bytes) allocate 44.6 MB, 446 B a molecule, against the
// 12.8 MB the byte term allows.
const (
	allocPerByte     = 64
	allocPerMolecule = 512
	readerOverhead   = 256 << 10
)

// readBounded runs read over input and fails unless it allocated within
// the bound above and returned an error or graphs no larger than the input
// in vertices and edges. It returns read's error. A reader that fails
// returns no molecule, so only the byte term bounds it.
func readBounded(t *testing.T, input []byte, read func(io.Reader, string) ([]*graph.Graph, error)) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gs, err := read(bytes.NewReader(input), "fuzz")
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(allocPerByte*len(input)+allocPerMolecule*len(gs)+readerOverhead) {
		t.Fatalf("reading %d bytes into %d molecules allocated %d", len(input), len(gs), alloc)
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

// TestSMILESManyShortLinesBounded: 100,000 lines of "C" read into as
// many molecules within the bound. Each molecule's objects cost more than
// 64 B per byte of its two-byte line, so the bound holds only through its
// per-molecule term.
func TestSMILESManyShortLinesBounded(t *testing.T) {
	input := bytes.Repeat([]byte("C\n"), 100000)
	gs, err := ReadSMILES(bytes.NewReader(input), "lines")
	if err != nil || len(gs) != 100000 {
		t.Fatalf("%d molecules, error %v; want 100,000", len(gs), err)
	}
	if err := readBounded(t, input, ReadSMILES); err != nil {
		t.Fatal(err)
	}
}

// TestSDFManyShortRecordsBounded: 10,000 minimal SD records of one carbon
// each read into as many molecules within the same bound.
func TestSDFManyShortRecordsBounded(t *testing.T) {
	input := bytes.Repeat([]byte("m\n\n\n  1  0\n0 0 0 C\n$$$$\n"), 10000)
	gs, err := ReadSDF(bytes.NewReader(input), "records")
	if err != nil || len(gs) != 10000 {
		t.Fatalf("%d molecules, error %v; want 10,000", len(gs), err)
	}
	if err := readBounded(t, input, ReadSDF); err != nil {
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
