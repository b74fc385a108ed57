// SDF (MDL SD file) corpus loader. Parses the V2000 connection table of
// each record into a labeled graph over the package's atom/bond label
// spaces, streaming record by record so a multi-gigabyte screen file can
// feed an out-of-core index build without ever being held in memory.
//
// The parser is deliberately narrow: counts line, atom block (element
// symbol only — coordinates, charges and isotopes are ignored), bond
// block, then everything up to the "$$$$" record delimiter is skipped.
// Explicit hydrogens are stripped (with their bonds), matching how the
// paper's experiments and the synthetic generator treat molecules.
// Every parse error reports the file name, the 1-based line number, and
// the record number, so a bad row in a 100k-record dump is findable.

package chem

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pis/internal/graph"
)

// atomLabel maps an element symbol to the package's vertex label space;
// ok is false for symbols outside it. Hydrogen is handled by the callers
// (stripped), not here.
func atomLabel(sym string) (graph.VLabel, bool) {
	switch strings.ToUpper(sym) {
	case "C":
		return AtomC, true
	case "N":
		return AtomN, true
	case "O":
		return AtomO, true
	case "S":
		return AtomS, true
	case "P":
		return AtomP, true
	case "F", "CL", "BR", "I":
		return AtomHalogen, true
	}
	return 0, false
}

// bondLabel maps an MDL bond type code to the package's edge labels.
func bondLabel(t int) (graph.ELabel, bool) {
	switch t {
	case 1:
		return BondSingle, true
	case 2:
		return BondDouble, true
	case 3:
		return BondTriple, true
	case 4:
		return BondAromatic, true
	}
	return 0, false
}

// lines scans a corpus file line by line and counts the lines for error
// positions: the SMILES and SDF readers both read through it.
type lines struct {
	sc     *bufio.Scanner
	name   string
	line   int  // 1-based line number of the most recently read line
	failed bool // end has reported the scanner's error
}

func newLines(r io.Reader, name string) lines {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	return lines{sc: sc, name: name}
}

// next returns the next line, or false at the end of the input.
func (l *lines) next() (string, bool) {
	if !l.sc.Scan() {
		return "", false
	}
	l.line++
	return l.sc.Text(), true
}

// end is a reader's error at the end of the input: the scanner's error,
// positioned, the first time there is one, else io.EOF.
func (l *lines) end() error {
	if err := l.sc.Err(); err != nil && !l.failed {
		l.failed = true
		return fmt.Errorf("%s:%d: %w", l.name, l.line, err)
	}
	return io.EOF
}

// SDFReader decodes one molecule per Next call. Errors carry
// "<name>:<line>: record <n>:" positions.
type SDFReader struct {
	lines
	record int // 1-based record number of the record being parsed
}

// NewSDFReader reads SD records from r; name labels error positions
// (typically the file path).
func NewSDFReader(r io.Reader, name string) *SDFReader {
	return &SDFReader{lines: newLines(r, name)}
}

func (r *SDFReader) errf(format string, args ...any) error {
	pos := fmt.Sprintf("%s:%d: record %d: ", r.name, r.line, r.record)
	return fmt.Errorf(pos+format, args...)
}

// field extracts the fixed-width column [start, end) of an MDL line,
// falling back to whitespace fields for files with sloppy columns.
func field(line string, start, end, idx int) string {
	if len(line) >= end {
		if f := strings.TrimSpace(line[start:end]); f != "" {
			return f
		}
	}
	fs := strings.Fields(line)
	if idx < len(fs) {
		return fs[idx]
	}
	return ""
}

// Next returns the next molecule, or io.EOF after the last record.
func (r *SDFReader) Next() (*graph.Graph, error) {
	// Skip blank lines between records; EOF here is a clean end. The
	// first line that is not blank is the molecule's name, unused.
	for {
		ln, ok := r.next()
		if !ok {
			return nil, r.end()
		}
		if strings.TrimSpace(ln) != "" {
			break
		}
	}
	r.record++
	for i := 0; i < 2; i++ { // program + comment header lines
		if _, ok := r.next(); !ok {
			return nil, r.errf("truncated header (file ends inside the three header lines)")
		}
	}
	counts, ok := r.next()
	if !ok {
		return nil, r.errf("missing counts line")
	}
	nAtoms, err1 := strconv.Atoi(field(counts, 0, 3, 0))
	nBonds, err2 := strconv.Atoi(field(counts, 3, 6, 1))
	if err1 != nil || err2 != nil || nAtoms < 0 || nBonds < 0 {
		return nil, r.errf("bad counts line %q", counts)
	}

	// Atom block. keep[i] is the graph vertex of 1-based atom i+1, or -1
	// for a stripped explicit hydrogen. Nothing is sized by the declared
	// counts: storage grows with the lines that arrive, so a counts line
	// claiming a billion atoms costs nothing before the input runs out.
	b := graph.NewBuilder(0, 0)
	var keep []int32
	for i := 0; i < nAtoms; i++ {
		ln, ok := r.next()
		if !ok {
			return nil, r.errf("truncated atom block (%d of %d atoms)", i, nAtoms)
		}
		sym := field(ln, 31, 34, 3)
		if strings.EqualFold(sym, "H") || strings.EqualFold(sym, "D") || strings.EqualFold(sym, "T") {
			keep = append(keep, -1)
			continue
		}
		l, ok := atomLabel(sym)
		if !ok {
			return nil, r.errf("unknown atom symbol %q", sym)
		}
		keep = append(keep, b.AddVertex(l))
	}

	// Bond block; bonds touching a stripped hydrogen are dropped.
	for i := 0; i < nBonds; i++ {
		ln, ok := r.next()
		if !ok {
			return nil, r.errf("truncated bond block (%d of %d bonds)", i, nBonds)
		}
		u, err1 := strconv.Atoi(field(ln, 0, 3, 0))
		v, err2 := strconv.Atoi(field(ln, 3, 6, 1))
		t, err3 := strconv.Atoi(field(ln, 6, 9, 2))
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, r.errf("bad bond line %q", ln)
		}
		if u < 1 || u > nAtoms || v < 1 || v > nAtoms || u == v {
			return nil, r.errf("bond %d-%d outside the %d-atom molecule", u, v, nAtoms)
		}
		l, ok := bondLabel(t)
		if !ok {
			return nil, r.errf("unknown bond type %d", t)
		}
		if keep[u-1] < 0 || keep[v-1] < 0 {
			continue
		}
		b.AddEdge(keep[u-1], keep[v-1], l)
	}

	// Skip properties and data fields to the record delimiter. EOF before
	// "$$$$" is tolerated for the final record (many tools omit it).
	for {
		if ln, ok := r.next(); !ok || strings.HasPrefix(ln, "$$$$") {
			break
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, r.errf("%v", err)
	}
	if g.N() == 0 {
		return nil, r.errf("molecule has no heavy atoms")
	}
	return g, nil
}
