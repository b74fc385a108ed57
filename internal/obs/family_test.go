package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// newHistogram returns the one child of a fresh histogram family, for
// tests that exercise a histogram outside any shared registry.
func newHistogram(name, help, label, value string, buckets []float64) *Histogram {
	return NewRegistry().HistogramVec(name, help, label, buckets).With(value)
}

// TestRegistrationMismatchPanics: a name keeps the kind and the label it
// was first registered with. Another label, another kind, and a plain
// gauge against a scrape-time one all panic.
func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("pis_stage_total", "", "stage")
	r.GaugeGroup(func() []float64 { return []float64{1} }, GaugeSpec{"pis_live", ""})
	for name, try := range map[string]func(){
		"unlabeled counter":      func() { r.Counter("pis_stage_total", "") },
		"other label":            func() { r.CounterVec("pis_stage_total", "", "tier") },
		"histogram":              func() { r.HistogramVec("pis_stage_total", "", "stage", nil) },
		"gauge over gauge group": func() { r.Gauge("pis_live", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			try()
		}()
	}
}

// TestUnlabeledIsOnlyChild: an unlabeled metric is the one child, value
// "", of its family, and reading a vec's value creates no series.
func TestUnlabeledIsOnlyChild(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pis_plain_total", "")
	if r.CounterVec("pis_plain_total", "", "").With("") != c {
		t.Fatal("the unlabeled counter is not its family's child \"\"")
	}
	v := r.CounterVec("pis_vec_total", "", "stage")
	if v.Value("missing") != 0 || len(v.children) != 0 {
		t.Fatalf("Value on a missing label created a child: %v", v.values)
	}
}

// TestFamilyConcurrentWithAndWrite: children created while the family
// is rendered. The renderer reads the children without the family lock,
// which is safe only because they are append-only; -race checks it.
func TestFamilyConcurrentWithAndWrite(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pis_peer_total", "", "peer")
	stop := make(chan struct{})
	rendered := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				rendered <- nil
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				rendered <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With(strconv.Itoa(i % 50)).Inc()
			}
		}()
	}
	// A newer owner rebinds a gauge group while scrapes sample it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			r.GaugeGroup(func() []float64 { return []float64{float64(i), 1} }, GaugeSpec{"pis_rebound", ""}, GaugeSpec{"pis_rebound_too", ""})
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-rendered; err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if want := fmt.Sprintf("pis_peer_total{peer=%q} 80\n", strconv.Itoa(i)); !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
