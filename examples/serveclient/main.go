// Example HTTP client for pisserved: builds a small query graph, runs a
// threshold search and a kNN search against a running server, repeats the
// search, and prints the result-memo counters from /stats. Start a server first, e.g.:
//
//	pisserved -gen 500 -shards 4 -addr :8080
//	go run ./examples/serveclient -addr http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"

	"pis"
	"pis/server"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "http://localhost:8080", "pisserved base URL")
	sigma := flag.Float64("sigma", 2, "search threshold σ")
	flag.Parse()

	// A benzene-like ring — six carbons (label 0) joined by aromatic
	// bonds (label 2), the generator's most common substructure.
	b := pis.NewGraphBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.AddVertex(0)
	}
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32((i+1)%6), 2)
	}
	ring := b.MustBuild()

	var sr server.SearchResponse
	post(*addr+"/search", server.SearchRequest{Query: server.EncodeGraph(ring), Sigma: *sigma}, &sr)
	fmt.Printf("search σ=%g: %d answers in %.1fms (memo hit=%v)\n",
		*sigma, len(sr.Answers), sr.ElapsedMS, sr.Stats.MemoHit)

	var kr server.KNNResponse
	post(*addr+"/knn", server.KNNRequest{Query: server.EncodeGraph(ring), K: 3, MaxSigma: 16}, &kr)
	fmt.Println("3 nearest graphs:")
	for _, n := range kr.Neighbors {
		fmt.Printf("  graph %d at distance %g\n", n.ID, n.Distance)
	}

	// The same search again is a hit of every shard's result memo: the
	// canonical key ignores vertex order, so any isomorphic rewrite of the
	// ring hits too, and a write since costs only the graphs it added.
	post(*addr+"/search", server.SearchRequest{Query: server.EncodeGraph(ring), Sigma: *sigma}, &sr)
	fmt.Printf("repeat search: memo hit=%v, %.2fms\n", sr.Stats.MemoHit, sr.ElapsedMS)

	resp, err := http.Get(*addr + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d graphs, %d shards, memo %d hits / %d misses / %d fallbacks, %d bytes\n",
		st.Graphs, st.Shards, st.Memo.Hits, st.Memo.Misses, st.Memo.Fallbacks, st.Memo.Bytes)
}

func post(url string, req, resp any) {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		json.NewDecoder(r.Body).Decode(&e)
		log.Fatalf("%s: %s (%s)", url, r.Status, e.Error)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		log.Fatal(err)
	}
}
