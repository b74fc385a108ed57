package pis_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"pis"
	"pis/gen"
)

// Differential property tests for Options.MappedIndex: a database whose
// base index is served memory-mapped from its on-disk image must answer
// Search/SearchKNN/SearchBatch byte-identically to the heap-resident
// index, across every Insert/Delete/Compact interleaving the existing
// mutation harness drives (each compaction re-maps a freshly written
// image), sharded and unsharded, durable and in-memory, and stays
// torn-free under concurrent mutation (run with -race in CI).

// mappedOpts builds the database under test; the heap oracle uses the
// same options with MappedIndex stripped, so the only degree of freedom
// is the index representation.
func mappedOpts() (mapped, heap pis.Options) {
	mapped = pis.Options{MaxFragmentEdges: 4, MappedIndex: true}
	heap = mapped
	heap.MappedIndex = false
	return mapped, heap
}

func TestMappedMutationDifferentialUnsharded(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		mopts, hopts := mappedOpts()
		initial := gen.Molecules(25, gen.Config{Seed: 50 + seed})
		db, err := pis.New(initial, mopts)
		if err != nil {
			t.Fatal(err)
		}
		runMutationDifferential(t, 300+seed, db, initial, hopts)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMappedMutationDifferentialSharded(t *testing.T) {
	mopts, hopts := mappedOpts()
	initial := gen.Molecules(30, gen.Config{Seed: 77})
	db, err := pis.NewSharded(initial, 2, mopts)
	if err != nil {
		t.Fatal(err)
	}
	runMutationDifferential(t, 402, db, initial, hopts)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedDurableReopen drives a durable database through mutations
// and a compaction, then reopens the store mapped, heap (same snapshot,
// index side file decoded instead of mapped), and mapped again, and
// requires every reopen to answer like a fresh in-memory build over the
// survivors. Residency is a per-Open choice, not a property of the store:
// the database is created heap as well as mapped, sharded as well as
// unsharded, and every store keeps exactly one idx-*.pisidx3 side file
// per shard either way.
func TestMappedDurableReopen(t *testing.T) {
	mopts, hopts := mappedOpts()
	for _, tc := range []struct {
		name    string
		create  pis.Options
		sharded bool
	}{
		{"created mapped", mopts, false},
		{"created heap", hopts, false},
		{"created mapped, sharded", mopts, true},
		{"created heap, sharded", hopts, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			initial := gen.Molecules(25, gen.Config{Seed: 123})
			var db durableDB
			var err error
			nShards := 1
			if tc.sharded {
				nShards = 2
				db, err = pis.CreateSharded(dir, initial, nShards, tc.create)
			} else {
				db, err = pis.Create(dir, initial, tc.create)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range gen.Molecules(10, gen.Config{Seed: 124}) {
				if _, err := db.Insert(g); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int32{3, 7, 26} {
				if ok, err := db.Delete(id); !ok || err != nil {
					t.Fatalf("Delete: %v, %v", ok, err)
				}
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			side, err := filepath.Glob(filepath.Join(dir, "shard-*", "idx-*.pisidx3"))
			if err != nil || len(side) != nShards {
				t.Fatalf("store holds %d index side files (%v, err %v), want one per shard (%d)", len(side), side, err, nShards)
			}

			for _, open := range []struct {
				name string
				opts pis.Options
			}{{"mapped", mopts}, {"heap", hopts}, {"mapped again", mopts}} {
				re := reopen(t, dir, open.opts)
				m := &mutationModel{live: make(map[int32]*pis.Graph)}
				for _, id := range re.LiveIDs() {
					m.live[id] = re.Graph(id)
					m.ever = append(m.ever, id)
				}
				if len(m.live) != 25+10-3 {
					t.Fatalf("%s reopen: %d live graphs, want %d", open.name, len(m.live), 25+10-3)
				}
				checkEquivalence(t, rand.New(rand.NewSource(999)), re, m, hopts)
				if err := re.Close(); err != nil {
					t.Fatalf("%s reopen: Close: %v", open.name, err)
				}
			}
		})
	}
}

// TestMappedMutationRace races searchers against mutators on mapped
// databases; compactions swap and retire mappings underneath in-flight
// queries, which must never observe a torn or unmapped index.
func TestMappedMutationRace(t *testing.T) {
	mopts, _ := mappedOpts()
	t.Run("unsharded", func(t *testing.T) {
		initial := gen.Molecules(20, gen.Config{Seed: 31})
		db, err := pis.New(initial, mopts)
		if err != nil {
			t.Fatal(err)
		}
		runMutationRace(t, db, initial)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		initial := gen.Molecules(24, gen.Config{Seed: 32})
		db, err := pis.NewSharded(initial, 2, mopts)
		if err != nil {
			t.Fatal(err)
		}
		runMutationRace(t, db, initial)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
