package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pis"
	"pis/server"
)

// clients is the closed-loop client count: callers of pisserved wait for
// their reply, and the box has two cores.
const clients = 2

// oracleEvery is how often a /search answer is compared with the oracle's.
const oracleEvery = 20

// sample is what the load generator records for one op.
type sample struct {
	start, end time.Duration // since the phase began
	failed     string        // why the op counts as failed; "" when it succeeded

	// /search only.
	elapsedMS float64
	cached    bool
	stats     server.StatsJSON
	nAnswers  int
	answers   []int32 // kept when the op is marked for the oracle check
	// Writes acknowledged before the request was sent and writes started
	// by the time the reply arrived: the answer reflects some write count
	// in that window.
	writesLo, writesHi int
	trace              *pis.TraceSpan
}

func (s *sample) rttMS() float64 { return ms(s.end - s.start) }

// writeOrder makes writes take effect in list order: a client that draws
// write w waits until write w-1 is acknowledged, so graph ids, delta
// sizes and auto-compaction points are the same on every run.
type writeOrder struct {
	mu      sync.Mutex
	cond    *sync.Cond
	acked   int
	started atomic.Int64
}

func newWriteOrder() *writeOrder {
	w := &writeOrder{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *writeOrder) wait(n int) {
	w.mu.Lock()
	for w.acked < n {
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.started.Add(1)
}

func (w *writeOrder) ack() {
	w.mu.Lock()
	w.acked++
	w.mu.Unlock()
	w.cond.Broadcast()
}

func (w *writeOrder) ackedNow() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.acked
}

// replay sends ops[from:to] from the closed-loop clients, each over its
// own keep-alive connection, and returns one sample per op. Searches at
// positions below tracedTo ask for the server's span tree.
func replay(url string, ops []op, from, to, tracedTo int, wo *writeOrder) []sample {
	samples := make([]sample, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				o := &ops[i]
				s := &samples[i-from]
				if o.write >= 0 {
					wo.wait(o.write)
				}
				path := o.path
				if o.kind == opSearch && i < tracedTo {
					path += "?trace=1"
				}
				s.writesLo = wo.ackedNow()
				s.start = time.Since(t0)
				status, err := send(hc, o.method, url+path, o.body, &buf)
				s.end = time.Since(t0)
				s.writesHi = int(wo.started.Load())
				if o.write >= 0 {
					wo.ack()
				}
				switch {
				case err != nil:
					s.failed = err.Error()
				case status < 200 || status > 299:
					s.failed = fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(buf.Bytes()))
				default:
					s.failed = decodeReply(o, buf.Bytes(), s)
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

func send(hc *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// decodeReply reads what the metrics need from a 2xx body and returns a
// failure reason when the reply is not what the op list predicts.
func decodeReply(o *op, body []byte, s *sample) string {
	switch o.kind {
	case opSearch:
		var r server.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "bad /search reply: " + err.Error()
		}
		s.elapsedMS, s.cached, s.stats, s.nAnswers, s.trace = r.ElapsedMS, r.Cached, r.Stats, len(r.Answers), r.Trace
		if o.check {
			s.answers = r.Answers
		}
	case opInsert:
		var r server.InsertResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return "bad insert reply: " + err.Error()
		}
		if r.ID != o.wantID {
			return fmt.Sprintf("insert got id %d, the list predicts %d", r.ID, o.wantID)
		}
		if r.Warning != "" {
			return "insert warning: " + r.Warning
		}
	}
	return ""
}
