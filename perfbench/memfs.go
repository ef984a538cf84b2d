package main

import (
	"fmt"
	"sync"

	"oldelephant/internal/storage"
)

// memFS is a RAM-backed storage.FS for the durable workload: files live in
// this process, fsync costs nothing (as on tmpfs), so device latency stays
// out of the measurement, and nothing is written outside the process.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: make(map[string][]byte)} }

// copyAll copies every file as it stands, the way copying the data directory
// of a running engine would.
func (fs *memFS) copyAll() *memFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := newMemFS()
	for name, data := range fs.files {
		out.files[name] = append([]byte(nil), data...)
	}
	return out
}

// OpenFile implements storage.FS.
func (fs *memFS) OpenFile(name string) (storage.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = nil
	}
	return &memFile{fs: fs, name: name}, nil
}

// Rename implements storage.FS.
func (fs *memFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("rename %s: no such file", oldname)
	}
	fs.files[newname] = data
	delete(fs.files, oldname)
	return nil
}

// Remove implements storage.FS.
func (fs *memFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, name)
	return nil
}

type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.fs.files[f.name]
	if off >= int64(len(data)) {
		return 0, fmt.Errorf("read %s at %d: past end of file", f.name, off)
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, fmt.Errorf("read %s at %d: short read", f.name, off)
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.fs.files[f.name]
	if end := off + int64(len(p)); end > int64(len(data)) {
		data = append(data, make([]byte, end-int64(len(data)))...)
	}
	copy(data[off:], p)
	f.fs.files[f.name] = data
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.fs.files[f.name]
	if size <= int64(len(data)) {
		// Copy, so that a log truncated at a checkpoint gives its memory back.
		f.fs.files[f.name] = append([]byte(nil), data[:size]...)
	} else {
		f.fs.files[f.name] = append(data, make([]byte, size-int64(len(data)))...)
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.fs.files[f.name])), nil
}
