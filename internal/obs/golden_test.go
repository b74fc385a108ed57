package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current exposition")

// TestExpositionGolden pins every byte of the exposition of one registry
// holding one instrument of each kind: names, label sets, help escaping,
// family order, bucket lines and the _clipped_total trailers. The other
// tests pin pieces of the format; this one catches any drift in the rest.
// Regenerate with go test ./internal/obs -run TestExpositionGolden -update.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("pis_golden_plain_total", "An unlabeled counter.").Add(3)
	cv := r.CounterVec("pis_golden_vec_total", "A counter family.", "stage")
	cv.With("struct").Add(7)
	cv.With("range").Inc()

	g := r.Gauge("pis_golden_gauge", "A gauge moved by Set and by Add.")
	g.Set(2.5)
	g.Add(-0.25)
	gv := r.GaugeVec("pis_golden_lag", "A gauge family.", "peer")
	gv.With("10.0.0.1:7000").Set(-1)
	gv.With("10.0.0.2:7000").Set(12)
	r.GaugeGroup(func() []float64 { return []float64{1e6} }, GaugeSpec{"pis_golden_func", "A scrape-time gauge."})

	h := r.Histogram("pis_golden_seconds", `Escaped help: a \ backslash
and a newline.`, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(3) // above the top bound
	hv := r.HistogramVec("pis_golden_bytes", "A histogram family.", "route", []float64{1024, 4096})
	hv.With("/search").Observe(100)
	hv.With("/search").Observe(5000) // above the top bound
	hv.With("/knn").Observe(2048)

	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
