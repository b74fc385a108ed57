package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"pis"
	"pis/gen"
	"pis/server"
)

type opKind int

const (
	opSearch opKind = iota
	opKNN
	opBatch
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"search", "knn", "batch", "insert", "delete"}

func (k opKind) isWrite() bool { return k == opInsert || k == opDelete }

const (
	knnK        = 10
	knnMaxSigma = 4
	batchSize   = 8
	zipfS       = 1.1
	// compactFraction mirrors pis.Options.CompactFraction's default, which
	// pis does not export. The generator simulates the trigger so that
	// compaction points are positions in the op list, and every run fails
	// unless the server compacted exactly as often as simulated.
	compactFraction = 0.25
	// corpusSeed makes the database the same on every run: the mined
	// feature set, and with it the cost of every query, depends on the
	// corpus far more than on anything a code change does (selective ran
	// 220 to 327 ops/s over ten corpora of 2500 graphs). The run's seed
	// picks the queries, their order and the mutation targets.
	corpusSeed = 1
)

// spec is one workload: a corpus size, a read/write mix laid out by
// position, and the backend the real server fronts.
type spec struct {
	name string
	why  string
	// n is the corpus size: the largest that still gives the workload what
	// it is sized for inside a 22 s measured phase (README, "Workloads").
	n int
	// rate is the reference throughput (ops/s) at the commit that defined
	// the benchmark. A run replays rate × seconds ops: fixed work whose
	// measured phase lasts about --seconds at that commit.
	rate       int
	queryEdges int
	sigma      float64
	// pool > 0 draws every read Zipf(1.1) from that many queries (hot,
	// cache-resident); 0 gives every read its own distinct query.
	pool int
	// block is the number of ops of each kind in one block of the list;
	// each block is shuffled by the seed, so shares hold exactly in every
	// block and mutation counts at a position barely depend on the seed.
	block [numKinds]int
	start func(dir string, graphs []*pis.Graph) (*instance, error)
}

var specs = []spec{
	{
		name: "broad",
		why:  "distinct Q16 sigma=2 searches on an in-memory heap index: verification dominates and every cache is smaller than the working set",
		n:    3000, rate: 80, queryEdges: 16, sigma: 2,
		block: [numKinds]int{opSearch: 1},
		start: startBroad,
	},
	{
		name: "selective",
		why:  "distinct Q24 sigma=1 searches on a reopened mmap-backed index: filtering dominates and answers are about one per query, bypassing verify",
		n:    5000, rate: 135, queryEdges: 24, sigma: 1,
		block: [numKinds]int{opSearch: 1},
		start: startSelective,
	},
	{
		name: "mutating",
		why:  "Zipf reads from a 256-query pool beside fsync'd inserts and deletes with two auto-compactions: hot caches, invalidation and the write path",
		n:    1300, rate: 300, queryEdges: 16, sigma: 2, pool: 256,
		block: [numKinds]int{opSearch: 33, opKNN: 5, opBatch: 1, opInsert: 6, opDelete: 5},
		start: startMutating,
	},
	{
		name: "cluster",
		why:  "distinct searches through a 3-node replicated cluster on loopback RPC: isolates what fan-out, codec, hedging and merge cost over broad",
		n:    3000, rate: 90, queryEdges: 16, sigma: 2,
		block: [numKinds]int{opSearch: 45, opKNN: 3, opInsert: 2},
		start: startCluster,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// op is one request of the list, fully encoded at generation time so the
// measured phase spends no load-generator CPU on building requests.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	query  int   // index into opList.queries (search, knn)
	check  bool  // search: the answer is compared with the oracle's
	write  int   // ordinal among writes; -1 for reads
	wantID int32 // insert: the id the server must assign
}

// opList is everything a run replays, made from the seed alone.
type opList struct {
	graphs  []*pis.Graph // initial corpus, ids 0..n-1
	heldOut []*pis.Graph // inserted in order, ids n, n+1, ...
	queries []*pis.Graph
	ops     []op
	warmup  int // ops[:warmup] are replayed before measurement starts
	counts  [numKinds]int

	// Predicted by simulating the mutations in list order.
	compactAt []int   // positions of the inserts that trigger auto-compaction
	deltaMax  int     // largest unindexed delta reached
	deltaEnd  int     // unindexed delta after the whole list
	live      []int32 // ids alive after the whole list, ascending
}

// generate builds the op list for a workload. Same (spec, seed, seconds)
// gives byte-identical requests.
func generate(sp spec, seed int64, seconds int) (*opList, error) {
	measured := sp.rate * seconds
	total := measured + measured/20 // the first ~5 % is warm-up
	blockLen := 0
	for _, c := range sp.block {
		blockLen += c
	}
	nBlocks := (total + blockLen - 1) / blockLen
	inserts := nBlocks * sp.block[opInsert]
	reads := nBlocks * (sp.block[opSearch] + sp.block[opKNN] + batchSize*sp.block[opBatch])

	all := gen.Molecules(sp.n+inserts, gen.Config{Seed: corpusSeed})
	l := &opList{graphs: all[:sp.n], heldOut: all[sp.n:], warmup: total - measured}
	// A pool is part of the workload like the corpus (256 queries are too
	// few for their mean cost to be the same on every seed); distinct
	// queries are drawn afresh for every seed.
	nq, querySeed := reads, seed+1
	if sp.pool > 0 {
		nq, querySeed = sp.pool, corpusSeed+1
	}
	l.queries = gen.Queries(l.graphs, nq, sp.queryEdges, querySeed)

	rng := rand.New(rand.NewSource(seed + 2))
	var zipf *rand.Zipf
	if sp.pool > 0 {
		zipf = rand.NewZipf(rng, zipfS, 1, uint64(sp.pool-1))
	}
	nextQuery := 0
	pickQuery := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		nextQuery++
		return nextQuery - 1
	}

	live := make([]int32, sp.n)
	for i := range live {
		live[i] = int32(i)
	}
	base, delta, writes, inserted := sp.n, 0, 0, 0

	kinds := make([]opKind, 0, blockLen)
	for len(l.ops) < total {
		kinds = kinds[:0]
		for k, c := range sp.block {
			for i := 0; i < c; i++ {
				kinds = append(kinds, opKind(k))
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			if len(l.ops) == total {
				break
			}
			o := op{kind: k, method: "POST", query: -1, write: -1}
			var body any
			switch k {
			case opSearch:
				o.path, o.query = "/search", pickQuery()
				o.check = sp.block[opDelete] == 0 && l.counts[opSearch]%oracleEvery == 0
				body = server.SearchRequest{Query: server.EncodeGraph(l.queries[o.query]), Sigma: sp.sigma}
			case opKNN:
				o.path, o.query = "/knn", pickQuery()
				body = server.KNNRequest{Query: server.EncodeGraph(l.queries[o.query]), K: knnK, MaxSigma: knnMaxSigma}
			case opBatch:
				o.path = "/batch"
				req := server.BatchRequest{Sigma: sp.sigma}
				for i := 0; i < batchSize; i++ {
					req.Queries = append(req.Queries, server.EncodeGraph(l.queries[pickQuery()]))
				}
				body = req
			case opInsert:
				o.path = "/graphs"
				o.wantID = int32(sp.n + inserted)
				body = server.InsertRequest{Graph: server.EncodeGraph(l.heldOut[inserted])}
				inserted++
				live = append(live, o.wantID)
				delta++
				l.deltaMax = max(l.deltaMax, delta)
				if float64(delta) > compactFraction*float64(base) {
					l.compactAt = append(l.compactAt, len(l.ops))
					base, delta = len(live), 0
				}
			case opDelete:
				i := rng.Intn(len(live))
				o.method, o.path = "DELETE", fmt.Sprintf("/graphs/%d", live[i])
				live = append(live[:i], live[i+1:]...)
			}
			if k.isWrite() {
				o.write = writes
				writes++
			}
			if body != nil {
				b, err := json.Marshal(body)
				if err != nil {
					return nil, fmt.Errorf("encoding %s request: %w", kindNames[k], err)
				}
				o.body = b
			}
			l.counts[k]++
			l.ops = append(l.ops, o)
		}
	}
	l.live, l.deltaEnd = live, delta
	return l, nil
}

// hash fingerprints every request of the list, in order.
func (l *opList) hash() string {
	h := sha256.New()
	for _, o := range l.ops {
		fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
		h.Write(o.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
