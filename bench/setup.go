package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"pis"
	"pis/server"
)

// resultCacheSize is pisserved's -cache default; every other server
// setting is the zero Config, as pisserved runs it.
const resultCacheSize = 4096

// backend is what a workload's start function hands to the server: the
// server surface plus Close.
type backend interface {
	server.Backend
	Close() error
}

// instance is one started system under test: the backend, the real
// server in front of it on an ephemeral loopback port, and how long each
// set-up stage took.
type instance struct {
	be     backend
	extra  []backend // cluster nodes 1..2, closed after be
	reopen func() (backend, error)
	hs     *http.Server
	served chan error
	url    string
	buildS float64
	openS  float64
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func startBroad(dir string, graphs []*pis.Graph) (*instance, error) {
	t := time.Now()
	db, err := pis.New(graphs, pis.Options{})
	if err != nil {
		return nil, err
	}
	return &instance{be: db, buildS: since(t)}, nil
}

// startSelective builds a durable mmap-backed store, closes it and serves
// from the reopened store: the restart path, where only the class
// directory is on the heap.
func startSelective(dir string, graphs []*pis.Graph) (*instance, error) {
	opts := pis.Options{MappedIndex: true}
	t := time.Now()
	db, err := pis.Create(dir, graphs, opts)
	if err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	in := &instance{buildS: since(t)}
	t = time.Now()
	db, err = pis.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	in.be, in.openS = db, since(t)
	return in, nil
}

func startMutating(dir string, graphs []*pis.Graph) (*instance, error) {
	t := time.Now()
	db, err := pis.Create(dir, graphs, pis.Options{})
	if err != nil {
		return nil, err
	}
	return &instance{
		be:     db,
		buildS: since(t),
		reopen: func() (backend, error) { return pis.Open(dir, pis.Options{}) },
	}, nil
}

const (
	clusterNodes       = 3
	clusterShards      = 3
	clusterReplication = 2
)

// startCluster boots three nodes in this process, one after the other as
// an operator would: the first bootstraps its shards, later ones fetch
// the replicas they share from a peer that already has them.
func startCluster(dir string, graphs []*pis.Graph) (*instance, error) {
	t := time.Now()
	addrs, err := reservePorts(clusterNodes)
	if err != nil {
		return nil, err
	}
	in := &instance{}
	for i, addr := range addrs {
		cn, err := pis.StartClusterNode(pis.ClusterOptions{
			Self:        addr,
			Peers:       addrs,
			Shards:      clusterShards,
			Replication: clusterReplication,
			DataDir:     filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			Graphs:      graphs,
		})
		if err != nil {
			in.close()
			return nil, fmt.Errorf("cluster node %d: %w", i, err)
		}
		if i == 0 {
			in.be = cn
		} else {
			in.extra = append(in.extra, cn)
		}
	}
	// Every coordinator refreshes its view now that all nodes are up, so
	// reads hedge across both replicas from the first request.
	for _, b := range append([]backend{in.be}, in.extra...) {
		b.(*pis.ClusterNode).CheckPeers()
	}
	in.buildS = since(t)
	return in, nil
}

// reservePorts picks n free loopback ports. A cluster node's identity is
// its configured address, so the ports must be known before any node
// starts; the listeners are closed again for the nodes to bind.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// serve puts the real server in front of the backend and waits until it
// answers /healthz.
func (in *instance) serve() error {
	t := time.Now()
	srv, err := server.New(server.Config{Backend: in.be, CacheSize: resultCacheSize})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.hs = &http.Server{Handler: srv}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	in.url = "http://" + ln.Addr().String()
	for {
		resp, err := http.Get(in.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if since(t) > 10 {
			return fmt.Errorf("server not ready after 10 s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// stopServer shuts the HTTP server down and waits for Serve to return.
func (in *instance) stopServer() error {
	if in.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.hs = nil
	return err
}

func (in *instance) close() error {
	err := in.stopServer()
	for _, b := range append([]backend{in.be}, in.extra...) {
		if b != nil {
			if cerr := b.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	in.be, in.extra = nil, nil
	return err
}
