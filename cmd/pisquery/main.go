// Command pisquery loads a graph database and runs one SSSD query against
// it, printing the matching graph ids and the per-stage statistics. With
// -serve-addr it sends the query to a running pisserved over HTTP instead
// of building a local index.
//
// Usage:
//
//	pisquery -db screen.db -query q.db -sigma 2
//	pisquery -db screen.db -query q.db -sigma 2 -method naive
//	pisquery -db screen.db -sample 16 -sigma 1   # sample a 16-edge query
//	pisquery -db screen.db -sample 16 -sigma 1 -serve-addr http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"pis"
	"pis/gen"
	"pis/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pisquery: ")
	var (
		dbPath  = flag.String("db", "", "database file (transaction format, required)")
		qPath   = flag.String("query", "", "query file; the first graph is the query")
		sample  = flag.Int("sample", 0, "instead of -query, sample a query with this many edges")
		sigma   = flag.Float64("sigma", 1, "maximum superimposed distance σ")
		method  = flag.String("method", "pis", "search method: pis, naive")
		maxFrag = flag.Int("maxfrag", 5, "maximum indexed fragment size (edges)")
		seed    = flag.Int64("seed", 1, "seed for -sample")
		verbose = flag.Bool("v", false, "print the query graph")
		remote  = flag.String("serve-addr", "", "base URL of a running pisserved; query it instead of building a local index")
	)
	flag.Parse()
	if (*qPath == "") == (*sample == 0) {
		log.Fatal("exactly one of -query or -sample is required")
	}
	if *remote != "" && *method != "pis" {
		log.Fatalf("-method %s cannot be combined with -serve-addr: the server always runs the PIS pipeline", *method)
	}
	// The local database is needed to sample a query or to build a local
	// index; a remote -query run needs neither.
	needDB := *remote == "" || *sample != 0
	if needDB && *dbPath == "" {
		log.Fatal("-db is required")
	}

	var graphs []*pis.Graph
	if needDB {
		dbFile, err := os.Open(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		graphs, err = pis.ReadDatabase(dbFile)
		dbFile.Close()
		if err != nil {
			log.Fatalf("reading database: %v", err)
		}
	}

	var q *pis.Graph
	if *qPath != "" {
		qf, err := os.Open(*qPath)
		if err != nil {
			log.Fatal(err)
		}
		qs, err := pis.ReadDatabase(qf)
		qf.Close()
		if err != nil || len(qs) == 0 {
			log.Fatalf("reading query: %v", err)
		}
		q = qs[0]
	} else {
		q = gen.Queries(graphs, 1, *sample, *seed)[0]
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "query: %v\n", q)
	}

	if *remote != "" {
		if err := queryRemote(*remote, q, *sigma); err != nil {
			log.Fatal(err)
		}
		return
	}

	db, err := pis.New(graphs, pis.Options{MaxFragmentEdges: *maxFrag})
	if err != nil {
		log.Fatal(err)
	}

	var r pis.Result
	switch *method {
	case "pis":
		r = db.Search(q, *sigma)
	case "naive":
		r = db.SearchNaive(q, *sigma)
	default:
		log.Fatalf("unknown method %q", *method)
	}

	fmt.Printf("answers (%d): %v\n", len(r.Answers), r.Answers)
	st := r.Stats
	fmt.Printf("fragments: %d indexed, %d used, %d expanded, partition size %d\n",
		st.QueryFragments, st.UsedFragments, st.ExpandedFragments, st.PartitionSize)
	fmt.Printf("candidates: %d structural, %d refuted by the prescreen, %d in σ range, %d after partition pruning, %d from the verify cache, %d verified\n",
		st.StructCandidates, st.PrescreenRejects, st.RangeCandidates, st.DistCandidates, st.VerifyCacheHits, st.Verified)
	fmt.Printf("time: filter %v (of which planning %v), verify %v\n", st.FilterTime, st.PlanTime, st.VerifyTime)
}

// queryRemote posts the query to a pisserved /search endpoint and prints
// the response in the local output shape.
func queryRemote(base string, q *pis.Graph, sigma float64) error {
	body, err := json.Marshal(server.SearchRequest{Query: server.EncodeGraph(q), Sigma: sigma})
	if err != nil {
		return err
	}
	url := strings.TrimRight(base, "/") + "/search"
	client := &http.Client{Timeout: 5 * time.Minute}
	httpResp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("querying %s: %w", url, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("%s returned %s: %s", url, httpResp.Status, bytes.TrimSpace(msg))
	}
	var resp server.SearchResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	fmt.Printf("answers (%d): %v\n", len(resp.Answers), resp.Answers)
	st := resp.Stats
	fmt.Printf("fragments: %d indexed, %d used, %d expanded, partition size %d\n",
		st.QueryFragments, st.UsedFragments, st.ExpandedFragments, st.PartitionSize)
	fmt.Printf("candidates: %d structural, %d refuted by the prescreen, %d in σ range, %d after partition pruning, %d from the verify cache, %d verified\n",
		st.StructCandidates, st.PrescreenRejects, st.RangeCandidates, st.DistCandidates, st.VerifyCacheHits, st.Verified)
	fmt.Printf("time: server %.2fms (filter %.2fms of which planning %.2fms, verify %.2fms)\n",
		resp.ElapsedMS, st.FilterMS, st.PlanMS, st.VerifyMS)
	return nil
}
