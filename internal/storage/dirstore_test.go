package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func newDirStore(t *testing.T) *DirStore {
	t.Helper()
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDirStoreRoundTrip(t *testing.T) {
	d := newDirStore(t)
	if err := d.Put("cosmo/train/a.tfrecord", []byte("data-a")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("cosmo/train/a.tfrecord")
	if err != nil || !bytes.Equal(got, []byte("data-a")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if !d.Has("cosmo/train/a.tfrecord") || d.Has("cosmo/other") {
		t.Error("Has mismatch")
	}
	if size, ok := d.Size("cosmo/train/a.tfrecord"); !ok || size != 6 {
		t.Errorf("Size = %d, %v", size, ok)
	}
	if _, ok := d.Size("cosmo/train"); ok {
		t.Error("Size reported a directory as an object")
	}
	objs, b := d.Stats()
	if objs != 1 || b != 6 {
		t.Errorf("stats = %d, %d", objs, b)
	}
	d.Delete("cosmo/train/a.tfrecord")
	if d.Has("cosmo/train/a.tfrecord") {
		t.Error("still present after delete")
	}
	d.Delete("cosmo/train/a.tfrecord") // idempotent
}

func TestDirStoreNotFound(t *testing.T) {
	d := newDirStore(t)
	if _, err := d.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestDirStoreRejectsEscapes(t *testing.T) {
	d := newDirStore(t)
	for _, p := range []string{"../evil", "/etc/passwd", "a/../../evil"} {
		if err := d.Put(p, []byte("x")); err == nil {
			t.Errorf("Put(%q) should be rejected", p)
		}
		if _, err := d.Get(p); err == nil {
			t.Errorf("Get(%q) should be rejected", p)
		}
		if d.Has(p) {
			t.Errorf("Has(%q) should be false", p)
		}
		if _, ok := d.Size(p); ok {
			t.Errorf("Size(%q) should be rejected", p)
		}
	}
}

func TestDirStoreInternalDotDot(t *testing.T) {
	// "a/../b" stays inside the root after cleaning and is allowed.
	d := newDirStore(t)
	if err := d.Put("a/../b", []byte("x")); err != nil {
		t.Fatalf("internal .. should clean to b: %v", err)
	}
	if !d.Has("b") {
		t.Error("cleaned path not stored")
	}
}

func TestNewDirStoreValidation(t *testing.T) {
	if _, err := NewDirStore(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing root should fail")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := (func() error {
		d, err := NewDirStore(t.TempDir())
		if err != nil {
			return err
		}
		return d.Put("file", []byte("x"))
	})(); err != nil {
		t.Fatal(err)
	}
	_ = f
}

func TestDirStoreRootIsFile(t *testing.T) {
	dir := t.TempDir()
	d, _ := NewDirStore(dir)
	d.Put("somefile", []byte("x"))
	if _, err := NewDirStore(filepath.Join(dir, "somefile")); err == nil {
		t.Error("file root should fail")
	}
}
