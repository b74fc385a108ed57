// Package fsys is the filesystem seam of everything that writes to disk:
// the durable store's snapshots, logs and manifests and the index images
// go through an FS, with OS (the real os package calls) as the default.
// Production code never notices the indirection; fault-injection tests
// swap in internal/faultfs to fail the nth fsync, tear a write short, or
// delay operations, turning "what if the disk dies mid-append" from a
// thought experiment into a deterministic unit test.
package fsys

import (
	"io"
	"os"
	"path/filepath"
)

// File is the view of one open file. *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
}

// FS abstracts the filesystem operations. All methods mirror the os
// package functions of the same name. Implementations must be safe for
// concurrent use (the os package is).
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
	ReadFile(name string) ([]byte, error)
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// OS is the real filesystem: every method is the matching os call.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// WriteFileAtomic writes name under dir via a temp file: content, fsync,
// rename, directory fsync. Readers see the old file or the new one,
// never a partial write.
func WriteFileAtomic(fs FS, dir, name string, write func(w io.Writer) error) error {
	tmp, err := fs.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	defer fs.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
