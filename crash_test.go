// Real-crash chaos harness: a child process (this test binary re-exec'd
// with PIS_CRASH_DIR set) inserts graphs into a durable sharded
// database, journaling every attempt before it starts and every
// acknowledgment after Insert returns, both fsync'd. The parent SIGKILLs
// it at a random moment and recovers the store, asserting the
// exactly-a-prefix contract: everything acknowledged survived, nothing
// beyond the last attempt appeared, and the survivors are a contiguous
// prefix of the attempt order (the child is sequential, so a later
// insert surviving while an earlier one vanished would mean an fsync
// was acknowledged but not durable).

package pis_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pis"
	"pis/internal/chem"
)

const crashBaseGraphs = 20

// crashChild runs the insert workload until it is killed. It never
// returns control to the test framework.
func crashChild(dir string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	graphs := chem.Generate(crashBaseGraphs, chem.Config{Seed: 21})
	db, err := pis.CreateSharded(filepath.Join(dir, "db"), graphs, 2, pis.Options{CompactFraction: -1})
	if err != nil {
		fail(err)
	}
	attempted, err := os.Create(filepath.Join(dir, "attempted"))
	if err != nil {
		fail(err)
	}
	acked, err := os.Create(filepath.Join(dir, "acked"))
	if err != nil {
		fail(err)
	}
	journal := func(f *os.File, id int32) {
		if _, err := fmt.Fprintln(f, id); err != nil {
			fail(err)
		}
		if err := f.Sync(); err != nil {
			fail(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second) // backstop if the parent dies first
	for i := 0; time.Now().Before(deadline); i++ {
		g := graphs[i%len(graphs)]
		journal(attempted, int32(crashBaseGraphs+i))
		id, err := db.Insert(g)
		if err != nil {
			fail(err)
		}
		if id != int32(crashBaseGraphs+i) {
			fail(fmt.Errorf("insert %d got id %d", crashBaseGraphs+i, id))
		}
		journal(acked, id)
	}
	os.Exit(0)
}

// readIDLines counts the ids journaled to path, tolerating a torn final
// line (the process can die mid-write of the journal itself).
func readIDLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "%d", new(int32)); err == nil {
			n++
		}
	}
	return n
}

func TestSIGKILLRecoversAckedPrefix(t *testing.T) {
	if dir := os.Getenv("PIS_CRASH_DIR"); dir != "" {
		crashChild(dir)
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestSIGKILLRecoversAckedPrefix$")
			cmd.Env = append(os.Environ(), "PIS_CRASH_DIR="+dir)
			var childOut strings.Builder
			cmd.Stdout = &childOut
			cmd.Stderr = &childOut
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}

			// Let the child reach a steady insert rhythm, then kill it
			// mid-flight with no warning.
			ackPath := filepath.Join(dir, "acked")
			waitUntil := time.Now().Add(30 * time.Second)
			for {
				if data, err := os.ReadFile(ackPath); err == nil && strings.Count(string(data), "\n") >= 5 {
					break
				}
				if time.Now().After(waitUntil) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatalf("child never started inserting; output:\n%s", childOut.String())
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(time.Duration(round*7) * time.Millisecond)
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			cmd.Wait() // SIGKILL: expected to be non-nil, ignore

			nAttempted := readIDLines(t, filepath.Join(dir, "attempted"))
			nAcked := readIDLines(t, ackPath)
			if nAcked == 0 || nAttempted < nAcked {
				t.Fatalf("journal inconsistent: attempted=%d acked=%d", nAttempted, nAcked)
			}

			db, err := pis.Open(filepath.Join(dir, "db"), pis.Options{CompactFraction: -1})
			if err != nil {
				t.Fatalf("recovery failed: %v\nchild output:\n%s", err, childOut.String())
			}
			defer db.Close()
			live := db.LiveIDs()
			// Base graphs all survive.
			for i := int32(0); i < crashBaseGraphs; i++ {
				if db.Graph(i) == nil {
					t.Fatalf("base graph %d lost", i)
				}
			}
			nInserted := len(live) - crashBaseGraphs
			if nInserted < nAcked || nInserted > nAttempted {
				t.Fatalf("recovered %d inserts; acknowledged %d, attempted %d — outside the acked prefix window",
					nInserted, nAcked, nAttempted)
			}
			// Sequential child ⇒ survivors are a contiguous id prefix.
			for i := 0; i < nInserted; i++ {
				id := int32(crashBaseGraphs + i)
				if db.Graph(id) == nil {
					t.Fatalf("insert %d missing but %d inserts recovered (hole in the prefix)", id, nInserted)
				}
			}
		})
	}
}
