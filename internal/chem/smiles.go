// Pragmatic SMILES corpus loader: one molecule per line ("SMILES" or
// "SMILES name", '#' comments), covering the organic subset plus the
// constructs screen datasets actually use — branches, ring closures
// (including %nn), explicit bonds, aromatic lowercase atoms, and bracket
// atoms reduced to their element symbol (charge, isotope, chirality and
// H counts are ignored; explicit [H] atoms are stripped). Exotic SMILES
// (multi-fragment '.', wildcards, elements outside the label space) fail
// with the file name, line number and column, never silently.

package chem

import (
	"fmt"
	"io"
	"strings"

	"pis/internal/graph"
)

// SMILESReader decodes one molecule per non-comment line.
type SMILESReader struct{ lines }

// NewSMILESReader reads SMILES lines from r; name labels error positions.
func NewSMILESReader(r io.Reader, name string) *SMILESReader {
	return &SMILESReader{newLines(r, name)}
}

// Next returns the next molecule, or io.EOF after the last line.
func (r *SMILESReader) Next() (*graph.Graph, error) {
	for {
		ln, ok := r.next()
		if !ok {
			return nil, r.end()
		}
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		smi, _, _ := strings.Cut(ln, " ")
		smi, _, _ = strings.Cut(smi, "\t")
		g, err := parseSMILES(smi)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", r.name, r.line, err)
		}
		return g, nil
	}
}

// smilesAtom is one parsed atom: its graph vertex (-1 for a stripped
// explicit hydrogen), its label, and whether it was written lowercase
// (aromatic).
type smilesAtom struct {
	vert     int32
	label    graph.VLabel
	aromatic bool
}

// smilesParser adds atoms and bonds to its builder as it reads them. The
// builder is sized by the line: every atom takes a byte of it, and every
// bond a new atom or a ring-closure digit, so neither outnumbers its bytes.
type smilesParser struct {
	s   string
	pos int
	b   *graph.Builder

	prev    smilesAtom   // previous atom, when started
	started bool         // an atom has been read
	pending graph.ELabel // explicit bond for the next attachment
	hasBond bool
	stack   []smilesAtom // open branch anchors
	rings   map[string]ringOpen
}

type ringOpen struct {
	atom    smilesAtom
	bond    graph.ELabel
	hasBond bool
}

func (p *smilesParser) errf(format string, args ...any) error {
	return fmt.Errorf("bad SMILES at column %d: "+format, append([]any{p.pos + 1}, args...)...)
}

// addBond resolves the effective bond label between two atoms: explicit
// wins; two aromatic atoms default to aromatic; otherwise single.
func (p *smilesParser) addBond(a, b smilesAtom, explicit graph.ELabel, hasExplicit bool) {
	l := BondSingle
	if hasExplicit {
		l = explicit
	} else if a.aromatic && b.aromatic {
		l = BondAromatic
	}
	p.b.AddEdge(a.vert, b.vert, l)
}

// atom consumes one atom token at pos, returning its parsed form.
func (p *smilesParser) atom() (smilesAtom, error) {
	s := p.s
	if s[p.pos] == '[' {
		end := strings.IndexByte(s[p.pos:], ']')
		if end < 0 {
			return smilesAtom{}, p.errf("unterminated bracket atom")
		}
		body := s[p.pos+1 : p.pos+end]
		p.pos += end + 1
		// Strip a leading isotope count.
		i := 0
		for i < len(body) && body[i] >= '0' && body[i] <= '9' {
			i++
		}
		if i == len(body) {
			return smilesAtom{}, p.errf("bracket atom %q has no element", "["+body+"]")
		}
		sym := body[i : i+1]
		if i+1 < len(body) && body[i+1] >= 'a' && body[i+1] <= 'z' && sym[0] >= 'A' && sym[0] <= 'Z' {
			// Two-letter element; reject if the pair is not one we know
			// (e.g. [C@H] keeps sym "C": '@' is not a lowercase letter).
			if _, ok := atomLabel(body[i : i+2]); ok {
				sym = body[i : i+2]
			}
		}
		if sym == "H" {
			return smilesAtom{vert: -1}, nil
		}
		aromatic := sym[0] >= 'a' && sym[0] <= 'z'
		l, ok := atomLabel(sym)
		if !ok {
			return smilesAtom{}, p.errf("unknown atom symbol %q", sym)
		}
		return smilesAtom{label: l, aromatic: aromatic}, nil
	}
	// Organic subset; two-letter halogens first.
	for _, two := range [...]string{"Cl", "Br"} {
		if strings.HasPrefix(s[p.pos:], two) {
			p.pos += 2
			return smilesAtom{label: AtomHalogen}, nil
		}
	}
	c := s[p.pos]
	switch c {
	case 'C', 'N', 'O', 'S', 'P', 'F', 'I', 'c', 'n', 'o', 's', 'p':
		p.pos++
		l, _ := atomLabel(strings.ToUpper(string(c)))
		return smilesAtom{label: l, aromatic: c >= 'a'}, nil
	}
	return smilesAtom{}, p.errf("unexpected character %q", string(c))
}

func (p *smilesParser) closeRing(key string) error {
	if open, ok := p.rings[key]; ok {
		delete(p.rings, key)
		if !p.started {
			return p.errf("ring closure %s before any atom", key)
		}
		explicit, hasExplicit := p.pending, p.hasBond
		if open.hasBond {
			explicit, hasExplicit = open.bond, true
		}
		p.addBond(open.atom, p.prev, explicit, hasExplicit)
	} else {
		if !p.started {
			return p.errf("ring opening %s before any atom", key)
		}
		p.rings[key] = ringOpen{atom: p.prev, bond: p.pending, hasBond: p.hasBond}
	}
	p.pending, p.hasBond = 0, false
	return nil
}

func parseSMILES(s string) (*graph.Graph, error) {
	if s == "" {
		return nil, fmt.Errorf("bad SMILES at column 1: empty")
	}
	p := &smilesParser{s: s, b: graph.NewBuilder(len(s), len(s)), rings: map[string]ringOpen{}}
	for p.pos < len(s) {
		c := s[p.pos]
		switch {
		case c == '-' || c == '/' || c == '\\':
			p.pending, p.hasBond = BondSingle, true
			p.pos++
		case c == '=':
			p.pending, p.hasBond = BondDouble, true
			p.pos++
		case c == '#':
			p.pending, p.hasBond = BondTriple, true
			p.pos++
		case c == ':':
			p.pending, p.hasBond = BondAromatic, true
			p.pos++
		case c == '(':
			if !p.started {
				return nil, p.errf("branch opens before any atom")
			}
			p.stack = append(p.stack, p.prev)
			p.pos++
		case c == ')':
			if len(p.stack) == 0 {
				return nil, p.errf("unmatched branch close")
			}
			p.prev = p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			p.pos++
		case c >= '0' && c <= '9':
			if err := p.closeRing(string(c)); err != nil {
				return nil, err
			}
			p.pos++
		case c == '%':
			if p.pos+2 >= len(s) {
				return nil, p.errf("truncated %%nn ring closure")
			}
			if err := p.closeRing(s[p.pos+1 : p.pos+3]); err != nil {
				return nil, err
			}
			p.pos += 3
		case c == '.':
			return nil, p.errf("multi-fragment SMILES ('.') is not supported")
		default:
			a, err := p.atom()
			if err != nil {
				return nil, err
			}
			if a.vert >= 0 {
				a.vert = p.b.AddVertex(a.label)
			}
			if p.started && a.vert >= 0 && p.prev.vert >= 0 {
				p.addBond(p.prev, a, p.pending, p.hasBond)
			}
			p.pending, p.hasBond = 0, false
			if a.vert < 0 && p.started {
				continue // stay anchored at the heavy atom
			}
			p.prev, p.started = a, true
		}
	}
	if len(p.stack) > 0 {
		return nil, fmt.Errorf("bad SMILES: %d unclosed branch(es)", len(p.stack))
	}
	if len(p.rings) > 0 {
		for k := range p.rings {
			return nil, fmt.Errorf("bad SMILES: ring bond %s never closed", k)
		}
	}
	if p.b.N() == 0 {
		return nil, fmt.Errorf("bad SMILES: no heavy atoms")
	}
	g, err := p.b.Build()
	if err != nil {
		return nil, fmt.Errorf("bad SMILES: %w", err)
	}
	return g, nil
}
