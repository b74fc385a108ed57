// Durability: build a database once, mutate it, crash, and recover.
//
// pis.Create roots the database in a data directory: an atomic snapshot
// plus a write-ahead log that every Insert/Delete is fsync'd into before
// it is acknowledged. This example inserts and deletes some graphs, then
// simulates a crash by dropping the handle WITHOUT any clean shutdown or
// checkpoint, reopens the directory with pis.Open, and shows that the
// recovered database answers exactly like the one that "crashed" — the
// WAL replay restores the acknowledged mutations, and the base index is
// loaded, not re-mined. A database of several shards works the same way:
// pis.CreateSharded writes it, and the same pis.Open reads the shard
// count from the store.
//
// Run with: go run ./examples/durability
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pis"
	"pis/gen"
)

func main() {
	dir := filepath.Join(os.TempDir(), "pis-durability-example")
	os.RemoveAll(dir) // fresh run each time
	defer os.RemoveAll(dir)

	// Build and persist: the initial snapshot is on disk when Create
	// returns.
	graphs := gen.Molecules(40, gen.Config{Seed: 1})
	db, err := pis.Create(dir, graphs, pis.Options{MaxFragmentEdges: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %d-graph database at %s\n", db.Len(), dir)

	// Mutate. Each call returns only after its WAL record is fsync'd.
	extra := gen.Molecules(3, gen.Config{Seed: 2})
	var lastID int32
	for _, g := range extra {
		if lastID, err = db.Insert(g); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := db.Delete(5); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted 3 graphs (last id %d), deleted graph 5\n", lastID)

	q := gen.Queries(extra, 1, 5, 3)[0] // a query cut from an inserted graph
	before := db.Search(q, 2)
	fmt.Printf("pre-crash search: %d answers %v\n", len(before.Answers), before.Answers)

	// Crash. No Checkpoint, no graceful shutdown — the mutations exist
	// only in the WAL. (Close just releases file handles so the reopen
	// below works in one process; a real crash skips even that.)
	db.Close()

	// Recover: newest snapshot + WAL replay. No re-mining: the features
	// travel inside the stored index, so the mining options need not be
	// repeated.
	re, err := pis.Open(dir, pis.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer re.Close()
	d := re.Stats().Durability
	fmt.Printf("recovered %d graphs (replayed %d WAL records, %d torn bytes dropped)\n",
		re.Len(), d.ReplayedRecords, d.RecoveryDroppedBytes)

	after := re.Search(q, 2)
	fmt.Printf("post-crash search: %d answers %v\n", len(after.Answers), after.Answers)
	if fmt.Sprint(after.Answers) != fmt.Sprint(before.Answers) {
		log.Fatal("recovery changed the answers!")
	}
	fmt.Println("identical answers: acknowledged mutations survived the crash")

	// A checkpoint folds the WAL into a fresh snapshot, so the next
	// recovery replays nothing.
	if err := re.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	d = re.Stats().Durability
	fmt.Printf("checkpointed: wal_records=%d snapshot_seq=%d\n", d.WALRecords, d.SnapshotSeq)
}
