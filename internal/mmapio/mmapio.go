// Package mmapio maps files into memory for zero-copy reads. On linux
// the mapping is a real syscall.Mmap (the kernel pages index slabs in and
// out on demand, so an index far larger than RAM still serves queries);
// elsewhere Open falls back to reading the file into an anonymous byte
// slice, which keeps every caller portable at the cost of residency.
//
// A Mapping is read-only and safe for concurrent readers. Close releases
// the mapping; the caller must guarantee no reader still holds a slice
// into Data() when it does. index.OpenMapped is the only caller.
package mmapio

import (
	"fmt"
	"os"
)

// Mapping is one read-only mapped file.
type Mapping struct {
	data   []byte
	mapped bool // true when data came from mmap, not a heap read
}

// Data returns the mapped bytes. The slice is read-only: writing to it
// faults on a real mapping and corrupts shared state on the fallback.
func (m *Mapping) Data() []byte {
	if m == nil {
		return nil
	}
	return m.data
}

// Open maps the file at path read-only.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapio: %s: %d bytes exceeds the address space", path, size)
	}
	return openFile(f, int(size))
}

// Close releases the mapping. The Mapping must not be used afterwards.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	err := m.release()
	m.data = nil
	return err
}
