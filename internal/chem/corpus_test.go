package chem

import (
	"io"
	"strings"
	"testing"
)

const ethanolRecord = `ethanol
  prog
comment
  4  3  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 O   0  0
    0.0000    0.0000    0.0000 H   0  0
  1  2  1  0
  2  3  1  0
  3  4  1  0
M  END
$$$$
`

const benzeneRecord = `benzene
  prog
comment
  6  6  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 C   0  0
    0.0000    0.0000    0.0000 C   0  0
  1  2  4  0
  2  3  4  0
  3  4  4  0
  4  5  4  0
  5  6  4  0
  6  1  4  0
M  END
> <activity>
inactive

$$$$
`

func TestReadSDF(t *testing.T) {
	gs, err := ReadSDF(strings.NewReader(ethanolRecord+benzeneRecord), "test.sdf")
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 2 {
		t.Fatalf("got %d molecules, want 2", len(gs))
	}
	// Ethanol: the explicit hydrogen and its bond are stripped.
	if gs[0].N() != 3 || gs[0].M() != 2 {
		t.Errorf("ethanol: %d atoms / %d bonds, want 3/2", gs[0].N(), gs[0].M())
	}
	if gs[0].VLabelAt(2) != AtomO {
		t.Errorf("ethanol atom 3 = %d, want AtomO", gs[0].VLabelAt(2))
	}
	if gs[1].N() != 6 || gs[1].M() != 6 {
		t.Errorf("benzene: %d atoms / %d bonds, want 6/6", gs[1].N(), gs[1].M())
	}
	for _, e := range gs[1].Edges() {
		if e.Label != BondAromatic {
			t.Errorf("benzene bond label %d, want aromatic", e.Label)
		}
	}
}

// mutateRecord rewrites one line (1-based) of an SD record.
func mutateRecord(rec string, line int, repl string) string {
	lines := strings.Split(rec, "\n")
	lines[line-1] = repl
	return strings.Join(lines, "\n")
}

func dropFrom(rec string, line int) string {
	lines := strings.Split(rec, "\n")
	return strings.Join(lines[:line-1], "\n") + "\n"
}

func TestReadSDFMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []string // substrings the error must contain
	}{
		{
			name:  "bad counts line",
			input: mutateRecord(ethanolRecord, 4, "  x  3  0  0999 V2000"),
			want:  []string{"test.sdf:4", "record 1", "bad counts line"},
		},
		{
			name:  "unknown atom symbol",
			input: mutateRecord(ethanolRecord, 6, "    0.0000    0.0000    0.0000 Xx  0  0"),
			want:  []string{"test.sdf:6", "record 1", `unknown atom symbol "Xx"`},
		},
		{
			name:  "truncated bond block",
			input: dropFrom(ethanolRecord, 10),
			want:  []string{"test.sdf:9", "record 1", "truncated bond block (1 of 3 bonds)"},
		},
		{
			name:  "truncated atom block",
			input: dropFrom(ethanolRecord, 7),
			want:  []string{"test.sdf:6", "record 1", "truncated atom block (2 of 4 atoms)"},
		},
		{
			name:  "bond outside molecule",
			input: mutateRecord(ethanolRecord, 9, "  1  9  1  0"),
			want:  []string{"test.sdf:9", "record 1", "bond 1-9 outside"},
		},
		{
			name:  "unknown bond type",
			input: mutateRecord(ethanolRecord, 9, "  1  2  8  0"),
			want:  []string{"test.sdf:9", "record 1", "unknown bond type 8"},
		},
		{
			name:  "second record positions",
			input: ethanolRecord + mutateRecord(benzeneRecord, 4, "garbage"),
			want:  []string{"test.sdf:17", "record 2", "bad counts line"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSDF(strings.NewReader(tc.input), "test.sdf")
			if err == nil {
				t.Fatal("malformed record parsed without error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

const screenSMILES = `# screen subset
CCO ethanol
c1ccccc1 benzene
CC(=O)O
ClCCBr
C1CC1
[13C]C[C@H](N)C(=O)O alanine-ish
`

func TestReadSMILES(t *testing.T) {
	gs, err := ReadSMILES(strings.NewReader(screenSMILES), "test.smi")
	if err != nil {
		t.Fatal(err)
	}
	type shape struct{ n, m int }
	want := []shape{{3, 2}, {6, 6}, {4, 3}, {4, 3}, {3, 3}, {7, 6}}
	if len(gs) != len(want) {
		t.Fatalf("got %d molecules, want %d", len(gs), len(want))
	}
	for i, w := range want {
		if gs[i].N() != w.n || gs[i].M() != w.m {
			t.Errorf("molecule %d: %d atoms / %d bonds, want %d/%d", i, gs[i].N(), gs[i].M(), w.n, w.m)
		}
	}
	// Benzene must come out aromatic without explicit bond symbols.
	for _, e := range gs[1].Edges() {
		if e.Label != BondAromatic {
			t.Errorf("benzene bond label %d, want aromatic", e.Label)
		}
	}
	// Halogens map to the shared halogen label.
	if gs[3].VLabelAt(0) != AtomHalogen || gs[3].VLabelAt(3) != AtomHalogen {
		t.Error("Cl/Br did not map to AtomHalogen")
	}
}

func TestReadSMILESMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []string
	}{
		{"unclosed branch", "CCO\nC(C\n", []string{"test.smi:2", "unclosed branch"}},
		{"unmatched close", "C)C\n", []string{"test.smi:1", "unmatched branch close"}},
		{"unclosed ring", "CCO\nCCO\nC1CC\n", []string{"test.smi:3", "ring bond 1 never closed"}},
		{"unknown element", "[Xe]C\n", []string{"test.smi:1", "unknown atom symbol"}},
		{"unexpected character", "CQC\n", []string{"test.smi:1", `unexpected character "Q"`, "column 2"}},
		{"multi-fragment", "C.C\n", []string{"test.smi:1", "multi-fragment"}},
		{"unterminated bracket", "C[NH\n", []string{"test.smi:1", "unterminated bracket"}},
		{"truncated ring escape", "CC%1\n", []string{"test.smi:1", "truncated %nn"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSMILES(strings.NewReader(tc.input), "test.smi")
			if err == nil {
				t.Fatal("malformed SMILES parsed without error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// TestSDFReaderStreams checks the reader yields records one at a time
// (io.EOF terminated), the shape the benchmark harness's corpus scan reads.
func TestSDFReaderStreams(t *testing.T) {
	r := NewSDFReader(strings.NewReader(ethanolRecord+benzeneRecord), "test.sdf")
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("streamed %d records, want 2", n)
	}
}
