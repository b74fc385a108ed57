package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pis/internal/chem"
)

// FuzzDecodeRequest holds readRequest to encoding/json's Decoder on
// arbitrary bytes for each of the four bodies the scanner reads: the same
// error or none, and equal values.
func FuzzDecodeRequest(f *testing.F) {
	const g = `{"vertices":[{"label":0,"weight":1.2011e1},{"label":2}],"edges":[{"u":0,"v":1,"label":1,"weight":1.54E+0}]}`
	for _, seed := range []string{
		// One canonical body of each type.
		`{"query":{"vertices":[{"label":0,"weight":1.2011e1}],"edges":[]},"sigma":2.5e-1}`,
		`{"query":` + g + `,"k":10,"max_sigma":4}`,
		`{"queries":[` + g + `,{"vertices":[{"label":1}],"edges":[]}],"sigma":1,"workers":2}`,
		` {"graph":{"vertices":[{"label":5,"weight":3.2e1}],"edges":[]}}` + "\n",
		// Fallback triggers.
		`{"Query":` + g + `,"sigma":1}`,
		`{"\u0071uery":` + g + `,"sigma":1}`,
		`{"query":{"vertices":[{"label":1,"weight":2}],"vertices":[{"label":3}],"edges":[]},"sigma":1}`,
		`null`,
		`{"query":null,"sigma":1}`,
		`{"query":` + g + `,"k":-0,"max_sigma":4}`,
		`{"query":` + g + `,"k":1.0,"max_sigma":4}`,
		`{"graph":{"vertices":[{"label":-0}],"edges":[]}}`,
		`{"query":` + g + `,"sigma":- 1}`,
		`{"query":` + g + `,"sigma":1e400}`,
		`{"graph":` + g + `} trailing`,
		// Malformed: each must fail as encoding/json fails.
		`{"query":` + g + ` "sigma":1}`,
		`{"query"` + g + `}`,
		`{"graph":{"vertices":[{"label":1} {"label":2}],"edges":[]}}`,
		`{"graph":{"vertices":[{"label":1},],"edges":[]}}`,
		`{"query":` + g + `,"sigma":01}`,
		`{"query":` + g + `,"sigma":1.}`,
		`{"graph":` + g,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sameDecode[SearchRequest](t, b)
		sameDecode[KNNRequest](t, b)
		sameDecode[BatchRequest](t, b)
		sameDecode[InsertRequest](t, b)
	})
}

func sameDecode[T any](t *testing.T, b []byte) {
	t.Helper()
	var got, want T
	gotErr := readRequest(b, &got)
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\n got %+v, %v\nwant %+v, %v", got, b, got, gotErr, want, wantErr)
	}
}

// TestCanonicalBodiesTakeFastPath: every body a client writes with
// json.Marshal or a json.Encoder is read by the scanner, to the value it
// encodes. A json tag renamed without the scanner fails here instead of
// sending every request to encoding/json.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	var bodies []any
	for _, weighted := range []bool{false, true} {
		db := chem.Generate(60, chem.Config{Seed: 5, Weighted: weighted})
		qs := chem.SampleQueries(db, 64, 16, 7)
		batch := make([]GraphJSON, len(qs))
		for i, q := range qs {
			batch[i] = EncodeGraph(q)
		}
		bodies = append(bodies,
			&SearchRequest{Query: batch[0], Sigma: 2},
			&SearchRequest{Query: batch[1], Sigma: 1.37},
			&SearchRequest{Query: batch[2], Sigma: 1e-7},
			&KNNRequest{Query: batch[3], K: 10, MaxSigma: 4},
			&KNNRequest{Query: batch[4], K: math.MaxInt32, MaxSigma: 0.625},
			&BatchRequest{Queries: batch, Sigma: 1.5},
			&BatchRequest{Queries: batch[:8], Sigma: 3, Workers: 2},
			&InsertRequest{Graph: EncodeGraph(db[0])},
		)
	}
	for _, body := range bodies {
		marshaled, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var encoded bytes.Buffer
		if err := json.NewEncoder(&encoded).Encode(body); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{marshaled, encoded.Bytes()} {
			got := reflect.New(reflect.TypeOf(body).Elem()).Interface()
			if !scanRequest(b, got) {
				t.Errorf("%T body left the fast path: %.120q", body, b)
			} else if !reflect.DeepEqual(got, body) {
				t.Errorf("%T body scanned to %+v, want %+v", body, got, body)
			}
		}
	}
}

// TestScanAllocationBounded: a body of unclosed objects makes the scanner
// allocate no more than a valid list of its length would hold.
func TestScanAllocationBounded(t *testing.T) {
	body := []byte(`{"graph":{"edges":[` + strings.Repeat("{", 1<<20) + `]}}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if scanRequest(body, new(InsertRequest)) {
		t.Fatal("scanner took a malformed body")
	}
	runtime.ReadMemStats(&after)
	// An EdgeJSON is 24 bytes and an element at least three.
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(body))*8+64<<10; got > bound {
		t.Errorf("scanning %d bytes allocated %d, over %d", len(body), got, bound)
	}
}

// BenchmarkDecodeRequest times reading one body through the scanner and
// through encoding/json's Decoder, the fallback.
func BenchmarkDecodeRequest(b *testing.B) {
	db := chem.Generate(100, chem.Config{Seed: 1})
	q16 := chem.SampleQueries(db, 8, 16, 1)
	q24 := chem.SampleQueries(db, 1, 24, 1)
	batch := make([]GraphJSON, len(q16))
	for i, q := range q16 {
		batch[i] = EncodeGraph(q)
	}
	cases := []struct {
		name  string
		body  any
		fresh func() any
	}{
		{"search-Q16", SearchRequest{Query: batch[0], Sigma: 2}, func() any { return new(SearchRequest) }},
		{"search-Q24", SearchRequest{Query: EncodeGraph(q24[0]), Sigma: 1}, func() any { return new(SearchRequest) }},
		{"batch-8", BatchRequest{Queries: batch, Sigma: 2}, func() any { return new(BatchRequest) }},
		{"insert", InsertRequest{Graph: EncodeGraph(db[0])}, func() any { return new(InsertRequest) }},
	}
	for _, c := range cases {
		body, err := json.Marshal(c.body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/fast", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if !scanRequest(body, c.fresh()) {
					b.Fatal("body left the fast path")
				}
			}
		})
		b.Run(c.name+"/fallback", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(c.fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
