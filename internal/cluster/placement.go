// Shard placement by rendezvous (highest-random-weight) hashing: every
// participant ranks each (shard, peer) pair by a hash score and takes
// the top R peers as that shard's replica set. The map is a pure
// function of the peer list, so every node and every coordinator — with
// no shared state and no leader — derives the identical placement, and
// adding or removing one peer moves only the shards that peer scored
// highest on, not the whole keyspace.

package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Place assigns each of nShards shards an ordered replica set of the
// min(replication, len(peers)) top-scoring peers. The first entry is the
// shard's preferred replica, which serves its reads while it is up: walking
// the shards in order, a shard prefers the peer of its set that the fewest
// earlier shards prefer, the higher score on a tie. The rest follow by
// score; they serve hedges and failover. The result is independent of the
// order peers are listed in.
func Place(nShards int, peers []string, replication int) [][]string {
	replication = min(max(replication, 1), len(peers))
	out := make([][]string, nShards)
	prefers := make(map[string]int, len(peers))
	type scored struct {
		peer  string
		score uint64
	}
	ranked := make([]scored, len(peers))
	for s := range out {
		for i, p := range peers {
			ranked[i] = scored{peer: p, score: rendezvousScore(s, p)}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].score != ranked[j].score {
				return ranked[i].score > ranked[j].score
			}
			return ranked[i].peer < ranked[j].peer // total order even on hash ties
		})
		p := 0
		for i := range replication {
			if prefers[ranked[i].peer] < prefers[ranked[p].peer] {
				p = i
			}
		}
		prefers[ranked[p].peer]++
		set := []string{ranked[p].peer}
		for i := range replication {
			if i != p {
				set = append(set, ranked[i].peer)
			}
		}
		out[s] = set
	}
	return out
}

// Owned lists the shards whose replica set includes self.
func Owned(placement [][]string, self string) []int {
	var owned []int
	for s, reps := range placement {
		for _, p := range reps {
			if p == self {
				owned = append(owned, s)
				break
			}
		}
	}
	return owned
}

func rendezvousScore(shard int, peer string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", shard, peer)
	return h.Sum64()
}
