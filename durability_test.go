package pis_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pis"
	"pis/gen"
	"pis/internal/store"
)

// Crash-recovery differential tests: a durable database must, after any
// interleaving of Insert/Delete/Compact/Checkpoint followed by a process
// "crash" (the store directory reopened exactly as the dying process
// left it, fsync'd mutations only), answer Search/SearchKNN/SearchBatch
// identically to a fresh pis.New over the surviving graphs. The torn-
// tail variants additionally damage the WAL at and inside every record
// boundary and assert recovery lands on exactly the acknowledged prefix.

// durableDB is mutableDB plus the durability surface of *pis.Database.
type durableDB interface {
	mutableDB
	Checkpoint() error
	Close() error
}

// crashCopy snapshots the store directory as-is — the moral equivalent
// of SIGKILL plus a disk image: no Close, no flush beyond what the store
// already fsync'd per mutation.
func crashCopy(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	var walk func(s, d string)
	walk = func(s, d string) {
		ents, err := os.ReadDir(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				sub := filepath.Join(d, e.Name())
				if err := os.MkdirAll(sub, 0o755); err != nil {
					t.Fatal(err)
				}
				walk(filepath.Join(s, e.Name()), sub)
				continue
			}
			data, err := os.ReadFile(filepath.Join(s, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk(src, dst)
	return dst
}

// reopen recovers a database from a crash image; the shard count comes
// with the image.
func reopen(t *testing.T, dir string, opts pis.Options) durableDB {
	t.Helper()
	db, err := pis.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return db
}

// runDurableDifferential drives a randomized
// Insert/Delete/Compact/Checkpoint interleaving against a durable db,
// and after every few steps crashes it (copy + reopen) and checks full
// answer equivalence against a fresh build over the survivors.
func runDurableDifferential(t *testing.T, seed int64, dir string, db durableDB, initial []*pis.Graph, opts pis.Options) {
	rng := rand.New(rand.NewSource(seed))
	pool := gen.Molecules(30, gen.Config{Seed: seed + 2000})
	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
		m.ever = append(m.ever, int32(i))
	}
	for step := 0; step < 24; step++ {
		if rng.Intn(6) == 0 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		} else {
			applyRandomOp(t, rng, db, m, pool)
		}
		if step%8 == 7 {
			// Crash: reopen the exact on-disk state in a throwaway copy
			// (the original keeps running — its own handles stay valid).
			crashed := reopen(t, crashCopy(t, dir), opts)
			checkEquivalence(t, rng, crashed, m, opts)
			crashed.Close()
		}
	}
	// The original, still-open database must agree with its own recovery.
	checkEquivalence(t, rng, db, m, opts)
}

func TestDurabilityCrashDifferentialUnsharded(t *testing.T) {
	for _, cf := range []float64{0, -1} { // auto-compaction on and off
		for seed := int64(0); seed < 2; seed++ {
			opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: cf}
			initial := gen.Molecules(25, gen.Config{Seed: 70 + seed})
			dir := filepath.Join(t.TempDir(), "db")
			db, err := pis.Create(dir, initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			runDurableDifferential(t, 500+seed, dir, db, initial, opts)
			db.Close()
		}
	}
}

func TestDurabilityCrashDifferentialSharded(t *testing.T) {
	for _, nShards := range []int{2, 3} {
		opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
		initial := gen.Molecules(30, gen.Config{Seed: 80})
		dir := filepath.Join(t.TempDir(), "db")
		db, err := pis.CreateSharded(dir, initial, nShards, opts)
		if err != nil {
			t.Fatal(err)
		}
		runDurableDifferential(t, 600+int64(nShards), dir, db, initial, opts)
		db.Close()
	}
}

// shardWALPath locates the single active WAL of one shard store.
func shardWALPath(t *testing.T, dir string, shard int) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", shard), "wal-*"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one WAL for shard %d, found %v (%v)", shard, matches, err)
	}
	return matches[0]
}

// applyWALPrefix folds decoded WAL records into a model live map.
func applyWALPrefix(live map[int32]*pis.Graph, recs []store.RecordInfo, n int) {
	for _, ri := range recs[:n] {
		switch ri.Op {
		case store.OpInsert:
			live[ri.ID] = ri.Graph
		case store.OpDelete:
			delete(live, ri.ID)
		}
	}
}

// runTornTail mutates a freshly created durable database, then damages
// shard damageShard's WAL at every record boundary and mid-record —
// truncations and bit flips — and asserts each recovery answers exactly
// like a fresh build over the acknowledged prefix (other shards keep
// their full logs).
func runTornTail(t *testing.T, dir string, db durableDB, nShards, damageShard int, initial []*pis.Graph, opts pis.Options) {
	rng := rand.New(rand.NewSource(7))
	pool := gen.Molecules(20, gen.Config{Seed: 8})
	nextID := int32(len(initial))
	for i := 0; i < 10; i++ {
		if i%3 == 2 {
			if ok, err := db.Delete(rng.Int31n(nextID)); err != nil {
				t.Fatalf("Delete: %v, %v", ok, err)
			}
		} else {
			if _, err := db.Insert(pool[rng.Intn(len(pool))]); err != nil {
				t.Fatal(err)
			}
			nextID++
		}
	}
	// Decode every shard's acknowledged log once, from a pristine image.
	pristine := crashCopy(t, dir)
	walRecs := make([][]store.RecordInfo, nShards)
	for s := 0; s < nShards; s++ {
		recs, _, err := store.ScanWAL(shardWALPath(t, pristine, s))
		if err != nil {
			t.Fatal(err)
		}
		walRecs[s] = recs
	}
	damaged := walRecs[damageShard]
	if len(damaged) == 0 {
		t.Fatal("damage target shard received no mutations; pick another seed")
	}

	check := func(name string, mutate func([]byte) []byte, keep int, garbageTail bool) {
		t.Helper()
		cdir := crashCopy(t, dir)
		walPath := shardWALPath(t, cdir, damageShard)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		crashed := reopen(t, cdir, opts)
		defer crashed.Close()
		m := &mutationModel{live: make(map[int32]*pis.Graph)}
		for i, g := range initial {
			m.live[int32(i)] = g
		}
		for s := 0; s < nShards; s++ {
			n := len(walRecs[s])
			if s == damageShard {
				n = keep
			}
			applyWALPrefix(m.live, walRecs[s], n)
		}
		checkEquivalence(t, rand.New(rand.NewSource(17)), crashed, m, opts)
		// A truncation at a record boundary leaves a shorter but valid
		// log — nothing to drop; only mid-record damage leaves a garbage
		// tail that recovery must discard and report.
		if d := crashed.Stats().Durability; garbageTail && d.RecoveryDroppedBytes == 0 {
			t.Errorf("%s: recovery reported no dropped bytes despite a damaged tail", name)
		}
	}

	for i, ri := range damaged {
		mid := ri.Start + (ri.End-ri.Start)/2
		check("truncate-at-boundary", func(b []byte) []byte { return b[:ri.End] }, i+1, false)
		check("truncate-mid-record", func(b []byte) []byte { return b[:mid] }, i, true)
		check("flip-mid-record", func(b []byte) []byte { b[mid] ^= 0x20; return b }, i, true)
	}
	check("truncate-to-empty", func(b []byte) []byte { return b[:0] }, 0, false)
}

func TestDurabilityTornWALUnsharded(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(20, gen.Config{Seed: 90})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.Create(dir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runTornTail(t, dir, db, 1, 0, initial, opts)
}

func TestDurabilityTornWALSharded(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(24, gen.Config{Seed: 91})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, initial, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	runTornTail(t, dir, db, 2, 0, initial, opts)
}

// TestDurabilityNoIDReuseAfterRestart: an id assigned, deleted, and
// compacted away before a checkpoint must not be handed out again after
// recovery — the snapshot persists the id high-water mark.
func TestDurabilityNoIDReuseAfterRestart(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(12, gen.Config{Seed: 92})
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.Create(dir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := gen.Molecules(3, gen.Config{Seed: 93})
	id, err := db.Insert(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := db.Delete(id); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	if err := db.Compact(); err != nil { // id now absent from every structure
		t.Fatal(err)
	}
	db.Close()

	re, err := pis.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	id2, err := re.Insert(pool[1])
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= id {
		t.Fatalf("id %d reused or regressed after restart (previous max %d)", id2, id)
	}
}

// TestDurabilityPersistThenOpen: an in-memory database (including one
// with live mutations) becomes durable via Persist with no rebuild, and
// Open recovers it; Checkpoint works, ErrNotDurable before.
func TestDurabilityPersistThenOpen(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(18, gen.Config{Seed: 94})
	db, err := pis.New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != pis.ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory db: %v, want ErrNotDurable", err)
	}
	if d := db.Stats().Durability; d.Durable {
		t.Fatal("in-memory database claims to be durable")
	}
	pool := gen.Molecules(4, gen.Config{Seed: 95})
	m := &mutationModel{live: make(map[int32]*pis.Graph)}
	for i, g := range initial {
		m.live[int32(i)] = g
	}
	id, err := db.Insert(pool[0]) // live delta at Persist time
	if err != nil {
		t.Fatal(err)
	}
	m.live[id] = pool[0]
	if ok, err := db.Delete(2); !ok || err != nil {
		t.Fatalf("Delete: %v, %v", ok, err)
	}
	delete(m.live, 2)

	dir := filepath.Join(t.TempDir(), "db")
	if err := db.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir); err == nil {
		t.Fatal("second Persist succeeded")
	}
	if d := db.Stats().Durability; !d.Durable || d.SnapshotSeq != 1 {
		t.Fatalf("after Persist: %+v", d)
	}
	// Mutations after Persist are WAL-logged.
	id2, err := db.Insert(pool[1])
	if err != nil {
		t.Fatal(err)
	}
	m.live[id2] = pool[1]
	db.Close()

	re := reopen(t, dir, opts)
	defer re.Close()
	if d := re.Stats().Durability; d.ReplayedRecords != 1 {
		t.Fatalf("recovery replayed %d records, want 1", d.ReplayedRecords)
	}
	checkEquivalence(t, rand.New(rand.NewSource(21)), re, m, opts)
}

// TestOpenRejectsWrongShape: Open takes the shard count from the root
// manifest — a 3-shard store and a 1-shard store both open, as what they
// are — and refuses a directory that is not a store or whose manifest
// names shards that are not on disk.
func TestOpenRejectsWrongShape(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4}
	initial := gen.Molecules(12, gen.Config{Seed: 96})
	q := gen.Queries(initial, 1, 6, 97)[0]
	dir := filepath.Join(t.TempDir(), "db")
	db, err := pis.CreateSharded(dir, initial, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := db.SearchNaive(q, 2).Answers
	db.Close()
	re, err := pis.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open of a 3-shard store: %v", err)
	}
	if re.NumShards() != 3 || !reflect.DeepEqual(re.Search(q, 2).Answers, want) {
		t.Fatalf("reopened 3-shard store: %d shards, answers %v, want %v", re.NumShards(), re.Search(q, 2).Answers, want)
	}
	if _, err := re.Insert(q); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if _, err := pis.Open(t.TempDir(), opts); err == nil {
		t.Fatal("Open accepted a non-store directory")
	}
	if !pis.StoreExists(dir) || pis.StoreExists(t.TempDir()) {
		t.Fatal("StoreExists misclassified a directory")
	}
	// A manifest naming more shards than the directory holds is refused
	// before anything is sized by it.
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("pis-store v1\nshards 2000000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pis.Open(dir, opts); err == nil || pis.StoreExists(dir) {
		t.Fatalf("a manifest naming 2000000000 shards over 3 directories: Open err %v, StoreExists %v", err, pis.StoreExists(dir))
	}
	// Create is the one-shard case of the same layout.
	udir := filepath.Join(t.TempDir(), "db1")
	udb, err := pis.Create(udir, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	udb.Close()
	one, err := pis.Open(udir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if one.NumShards() != 1 || !reflect.DeepEqual(one.Search(q, 2).Answers, want) {
		t.Fatalf("reopened 1-shard store: %d shards, answers %v, want %v", one.NumShards(), one.Search(q, 2).Answers, want)
	}
}

// TestPersistFailureRollsBack: a Persist that cannot write the root
// manifest leaves the database in memory — at any shard count — so a
// retry into a clean directory succeeds and the writes it then
// acknowledges survive Open.
func TestPersistFailureRollsBack(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4, CompactFraction: -1}
	initial := gen.Molecules(12, gen.Config{Seed: 99})
	extra := gen.Molecules(1, gen.Config{Seed: 100})[0]
	for _, shards := range []int{1, 3} {
		db, err := pis.NewSharded(initial, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		// MANIFEST as a non-empty directory: the shard stores get written,
		// the rename of the root manifest over it cannot succeed.
		bad := filepath.Join(t.TempDir(), "bad")
		if err := os.MkdirAll(filepath.Join(bad, "MANIFEST", "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := db.Persist(bad); err == nil {
			t.Fatalf("shards=%d: Persist over an unwritable root manifest succeeded", shards)
		}
		if db.Stats().Durability.Durable {
			t.Fatalf("shards=%d: database is half-durable after a failed Persist", shards)
		}
		for i := 0; i < shards; i++ {
			if _, err := os.Stat(filepath.Join(bad, fmt.Sprintf("shard-%03d", i))); err == nil {
				t.Errorf("shards=%d: failed Persist left shard-%03d behind", shards, i)
			}
		}
		good := filepath.Join(t.TempDir(), "good")
		if err := db.Persist(good); err != nil {
			t.Fatalf("shards=%d: Persist retry into a clean directory: %v", shards, err)
		}
		id, err := db.Insert(extra)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := pis.Open(good, opts)
		if err != nil {
			t.Fatalf("shards=%d: Open after the retried Persist: %v", shards, err)
		}
		if re.NumShards() != shards || re.Len() != len(initial)+1 || re.Graph(id) == nil {
			t.Errorf("shards=%d: reopened with %d shards, %d graphs, graph %d = %v", shards, re.NumShards(), re.Len(), id, re.Graph(id))
		}
		re.Close()
	}
}

// TestOpenIndexFingerprintMismatch: an index side file paired with a
// different database (same graph count, different contents) must fail
// Open descriptively — not load cleanly and return wrong answers. The
// sharded path names the offending shard.
func TestOpenIndexFingerprintMismatch(t *testing.T) {
	opts := pis.Options{MaxFragmentEdges: 4}
	graphs := gen.Molecules(20, gen.Config{Seed: 97})
	other := gen.Molecules(20, gen.Config{Seed: 98})
	// swapIndex drops other's shard-0 index file over graphs' one.
	swapIndex := func(dir, otherDir string) {
		t.Helper()
		name := filepath.Join("shard-000", "idx-000001.pisidx3")
		data, err := os.ReadFile(filepath.Join(otherDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	dirs := [2]string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for i, gs := range [][]*pis.Graph{graphs, other} {
		db, err := pis.Create(dirs[i], gs, opts)
		if err != nil {
			t.Fatal(err)
		}
		db.Close()
	}
	swapIndex(dirs[0], dirs[1])
	_, err := pis.Open(dirs[0], opts)
	if err == nil {
		t.Fatal("store opened with another database's index")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatch error does not mention the fingerprint: %v", err)
	}

	sdirs := [2]string{filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")}
	for i, gs := range [][]*pis.Graph{graphs, other} {
		sh, err := pis.CreateSharded(sdirs[i], gs, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		sh.Close()
	}
	swapIndex(sdirs[0], sdirs[1])
	_, err = pis.Open(sdirs[0], opts)
	if err == nil {
		t.Fatal("sharded store opened with another database's index")
	}
	if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("sharded mismatch error should name the shard and the fingerprint: %v", err)
	}
}
