// Package faultfs wraps a store.FS with deterministic fault injection
// for robustness tests: fail every operation of a kind after the nth (a
// disk that dies and stays dead), tear a write short (a crash
// mid-sector), or fail writes, syncs and renames at random. The wrapped
// filesystem is safe for concurrent use; rule evaluation and operation
// counting share one mutex.
//
// The zero configuration injects nothing, so a test can build its
// fixture through the injector and only then arm the fault.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"pis/internal/store"
)

// Op identifies one class of filesystem operation for fault rules.
type Op string

const (
	OpMkdirAll   Op = "mkdirall"
	OpStat       Op = "stat"
	OpReadFile   Op = "readfile"
	OpOpen       Op = "open"
	OpOpenFile   Op = "openfile"
	OpCreateTemp Op = "createtemp"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpTruncate   Op = "truncate"

	// File-handle operations (counted across all handles).
	OpWrite     Op = "write"
	OpSync      Op = "sync"
	OpClose     Op = "close"
	OpFTruncate Op = "ftruncate"
)

// ErrInjected is the error every injected fault wraps; tests detect it
// with errors.Is.
var ErrInjected = errors.New("faultfs: injected fault")

// FS wraps an inner store.FS and injects faults per the armed rules.
type FS struct {
	inner store.FS

	mu      sync.Mutex
	counts  map[Op]int64
	failAll map[Op]int64  // op -> fail every call strictly after this count
	tornNth map[int64]int // write index -> bytes to keep of that write
	rng     *rand.Rand    // non-nil = random mode
	rngRate float64       // probability a write/sync/rename fails in random mode
}

// New wraps inner (nil means the real filesystem) with no faults armed.
func New(inner store.FS) *FS {
	if inner == nil {
		inner = store.OSFS
	}
	return &FS{
		inner:   inner,
		counts:  make(map[Op]int64),
		failAll: make(map[Op]int64),
		tornNth: make(map[int64]int),
	}
}

// FailAfter arms a sticky fault: every operation of the kind strictly
// after the nth fails. FailAfter(op, 0) fails every future call — the
// disk is gone.
func (f *FS) FailAfter(op Op, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAll[op] = n
}

// TornWrite arms a short write: the nth write persists only keep bytes
// of its buffer, then reports an injected error. This models the torn
// tail a crash leaves mid-record.
func (f *FS) TornWrite(n int64, keep int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornNth[n] = keep
}

// Chaos switches to random mode: each write/sync/rename independently
// fails with probability rate, using the seeded generator so a failing
// run replays exactly.
func (f *FS) Chaos(seed int64, rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
	f.rngRate = rate
}

// Count returns how many operations of the kind have been attempted.
func (f *FS) Count(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check counts one operation and decides whether to fail it. The torn
// byte count is only meaningful for OpWrite (-1 = not torn, fail whole).
func (f *FS) check(op Op) (fail bool, keep int) {
	f.mu.Lock()
	f.counts[op]++
	n := f.counts[op]
	keep = -1
	if limit, ok := f.failAll[op]; ok && n > limit {
		fail = true
	}
	if op == OpWrite {
		if k, ok := f.tornNth[n]; ok {
			fail, keep = true, k
		}
	}
	if !fail && f.rng != nil {
		switch op {
		case OpWrite, OpSync, OpRename:
			fail = f.rng.Float64() < f.rngRate
		}
	}
	f.mu.Unlock()
	return fail, keep
}

func (f *FS) errf(op Op) error {
	return fmt.Errorf("%w: %s #%d", ErrInjected, op, f.Count(op))
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if fail, _ := f.check(OpMkdirAll); fail {
		return f.errf(OpMkdirAll)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FS) Stat(name string) (os.FileInfo, error) {
	if fail, _ := f.check(OpStat); fail {
		return nil, f.errf(OpStat)
	}
	return f.inner.Stat(name)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	if fail, _ := f.check(OpReadFile); fail {
		return nil, f.errf(OpReadFile)
	}
	return f.inner.ReadFile(name)
}

func (f *FS) Open(name string) (store.File, error) {
	if fail, _ := f.check(OpOpen); fail {
		return nil, f.errf(OpOpen)
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	if fail, _ := f.check(OpOpenFile); fail {
		return nil, f.errf(OpOpenFile)
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FS) CreateTemp(dir, pattern string) (store.File, error) {
	if fail, _ := f.check(OpCreateTemp); fail {
		return nil, f.errf(OpCreateTemp)
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if fail, _ := f.check(OpRename); fail {
		return f.errf(OpRename)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if fail, _ := f.check(OpRemove); fail {
		return f.errf(OpRemove)
	}
	return f.inner.Remove(name)
}

func (f *FS) Truncate(name string, size int64) error {
	if fail, _ := f.check(OpTruncate); fail {
		return f.errf(OpTruncate)
	}
	return f.inner.Truncate(name, size)
}

// faultFile intercepts the handle-level operations of one open file.
type faultFile struct {
	fs    *FS
	inner store.File
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }

func (ff *faultFile) Write(p []byte) (int, error) {
	fail, keep := ff.fs.check(OpWrite)
	if fail {
		if keep >= 0 {
			if keep > len(p) {
				keep = len(p)
			}
			// Persist the torn prefix, then report failure: the classic
			// crash-mid-record shape recovery must tolerate.
			n, _ := ff.inner.Write(p[:keep])
			return n, ff.fs.errf(OpWrite)
		}
		return 0, ff.fs.errf(OpWrite)
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if fail, _ := ff.fs.check(OpSync); fail {
		return ff.fs.errf(OpSync)
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	if fail, _ := ff.fs.check(OpClose); fail {
		ff.inner.Close()
		return ff.fs.errf(OpClose)
	}
	return ff.inner.Close()
}

func (ff *faultFile) Name() string { return ff.inner.Name() }

func (ff *faultFile) Truncate(size int64) error {
	if fail, _ := ff.fs.check(OpFTruncate); fail {
		return ff.fs.errf(OpFTruncate)
	}
	return ff.inner.Truncate(size)
}
