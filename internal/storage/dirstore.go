package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// DirStore exposes a directory tree as a read-mostly Store — the adapter
// that lets a standalone ftcserver treat a real mounted filesystem (on
// Frontier: the Lustre mount) as its PFS tier. Paths are slash-separated
// and confined to the root; escapes ("..", absolute paths) are rejected.
type DirStore struct {
	root string
}

// NewDirStore creates a store rooted at dir, which must exist.
func NewDirStore(dir string) (*DirStore, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: dir store root: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("storage: dir store root %s is not a directory", dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &DirStore{root: abs}, nil
}

// Root returns the absolute root directory.
func (d *DirStore) Root() string { return d.root }

// resolve maps a store path to a filesystem path inside the root.
func (d *DirStore) resolve(path string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(path))
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("storage: path %q escapes the store root", path)
	}
	return filepath.Join(d.root, clean), nil
}

// Put implements Store, creating parent directories as needed.
func (d *DirStore) Put(path string, data []byte) error {
	fp, err := d.resolve(path)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
		return err
	}
	return os.WriteFile(fp, data, 0o644)
}

// Get implements Store.
func (d *DirStore) Get(path string) ([]byte, error) {
	fp, err := d.resolve(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(fp)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return data, err
}

// Has implements Store.
func (d *DirStore) Has(path string) bool {
	fp, err := d.resolve(path)
	if err != nil {
		return false
	}
	info, err := os.Stat(fp)
	return err == nil && !info.IsDir()
}

// Size implements Store with a stat, never opening the file.
func (d *DirStore) Size(path string) (int64, bool) {
	fp, err := d.resolve(path)
	if err != nil {
		return 0, false
	}
	info, err := os.Stat(fp)
	if err != nil || info.IsDir() {
		return 0, false
	}
	return info.Size(), true
}

// Delete implements Store.
func (d *DirStore) Delete(path string) {
	if fp, err := d.resolve(path); err == nil {
		os.Remove(fp)
	}
}

// Stats implements Store by walking the tree.
func (d *DirStore) Stats() (int, int64) {
	var objects int
	var bytes int64
	filepath.WalkDir(d.root, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, err := e.Info(); err == nil {
			objects++
			bytes += info.Size()
		}
		return nil
	})
	return objects, bytes
}

var _ Store = (*DirStore)(nil)
