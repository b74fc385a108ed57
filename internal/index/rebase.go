// Merging an index forward. The paper's index (§4) is static, but most of
// what a compaction would find is already keyed and sorted in the
// outgoing index: Rebase carries those entries over under their new ids
// and walks only the graphs the old index never saw.

package index

import (
	"fmt"

	"pis/internal/graph"
)

// Rebase returns the index over db that BuildParallel would build from
// old's feature classes, bit for bit, reading what it can from old instead
// of from the graphs. db[:firstNew] are graphs old indexes and db[firstNew:]
// graphs it does not; remap[i] is the position in db of old's graph i, or
// -1 when that graph is gone, and ascends over the graphs kept. old is only
// read (heap or mapped alike) and may go on serving queries meanwhile.
func Rebase(old *Index, remap []int32, db []*graph.Graph, firstNew, workers int) (*Index, error) {
	if len(remap) != old.dbSize || firstNew < 0 || firstNew > len(db) {
		return nil, fmt.Errorf("index: rebase of a %d-graph index given %d old ids and %d carried of %d graphs", old.dbSize, len(remap), firstNew, len(db))
	}
	x := &Index{
		opts:    old.opts,
		weights: old.weights,
	}
	var ids []int32 // one entry's run, moved
	for _, oc := range old.list {
		c := &Class{ID: oc.ID, Key: oc.Key, Code: oc.Code, Structure: oc.Structure,
			NumV: oc.NumV, NumE: oc.NumE, vOff: oc.vOff, perms: oc.perms, conds: oc.conds}
		x.list = append(x.list, c)
		oc.eachEntry(func(key []uint64, run []int32) {
			ids = ids[:0]
			for _, id := range run {
				if to := remap[id]; to >= 0 {
					ids = append(ids, to)
				}
			}
			if len(ids) > 0 {
				c.stage.fold(key, ids...)
			}
		})
	}
	x.plant()
	x.foldAndSeal(db, firstNew, workers)
	return x, nil
}
