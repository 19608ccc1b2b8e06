// FS abstracts the handful of file operations the store performs so that
// fault-injection tests (internal/service/chaostest) can interpose seeded
// I/O errors between the store and the real filesystem. Production code
// always runs on OSFS; the indirection costs one interface call per disk
// operation, which the store performs at most once per artifact miss.
package store

import (
	"io"
	"os"
)

// File is the writable handle CreateTemp returns: enough surface for the
// store's atomic write protocol (write, close, rename by name).
type File interface {
	io.Writer
	Close() error
	Name() string
}

// FS is the filesystem the store's disk layer runs on.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OSFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                     { return os.Remove(name) }

func (OSFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
