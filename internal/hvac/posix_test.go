package hvac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

func openFixture(t *testing.T) (*testCluster, *Client, *File) {
	t.Helper()
	tc := newTestCluster(t, 1)
	tc.pfs.Put("data/seq", []byte("0123456789abcdef"))
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	f, err := c.Open(context.Background(), "data/seq")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return tc, c, f
}

func TestFileSequentialRead(t *testing.T) {
	_, _, f := openFixture(t)
	defer f.Close()
	if f.Name() != "data/seq" || f.Size() != 16 {
		t.Errorf("name=%q size=%d", f.Name(), f.Size())
	}
	buf := make([]byte, 5)
	n, err := f.Read(buf)
	if err != nil || n != 5 || string(buf) != "01234" {
		t.Fatalf("read 1: %q %d %v", buf[:n], n, err)
	}
	n, err = f.Read(buf)
	if err != nil || n != 5 || string(buf) != "56789" {
		t.Fatalf("read 2: %q %d %v", buf[:n], n, err)
	}
	// Read everything remaining via io.ReadAll.
	rest, err := io.ReadAll(f)
	if err != nil || string(rest) != "abcdef" {
		t.Fatalf("rest: %q %v", rest, err)
	}
	// At EOF.
	if _, err := f.Read(buf); err != io.EOF {
		t.Errorf("post-EOF read err = %v", err)
	}
}

func TestFileReadAt(t *testing.T) {
	_, _, f := openFixture(t)
	defer f.Close()
	buf := make([]byte, 4)
	n, err := f.ReadAt(buf, 10)
	if err != nil || n != 4 || string(buf) != "abcd" {
		t.Fatalf("ReadAt: %q %d %v", buf[:n], n, err)
	}
	// Tail read returns short count with EOF.
	n, err = f.ReadAt(buf, 14)
	if n != 2 || err != io.EOF || string(buf[:n]) != "ef" {
		t.Fatalf("tail ReadAt: %q %d %v", buf[:n], n, err)
	}
	if _, err := f.ReadAt(buf, 16); err != io.EOF {
		t.Errorf("past-EOF ReadAt err = %v", err)
	}
	// ReadAt must not move the sequential offset.
	head := make([]byte, 2)
	f.Read(head)
	if string(head) != "01" {
		t.Errorf("offset disturbed by ReadAt: %q", head)
	}
}

func TestFileSeek(t *testing.T) {
	_, _, f := openFixture(t)
	defer f.Close()
	if pos, err := f.Seek(10, io.SeekStart); err != nil || pos != 10 {
		t.Fatalf("seek start: %d %v", pos, err)
	}
	buf := make([]byte, 3)
	f.Read(buf)
	if string(buf) != "abc" {
		t.Errorf("after seek: %q", buf)
	}
	if pos, err := f.Seek(-3, io.SeekCurrent); err != nil || pos != 10 {
		t.Fatalf("seek current: %d %v", pos, err)
	}
	if pos, err := f.Seek(-6, io.SeekEnd); err != nil || pos != 10 {
		t.Fatalf("seek end: %d %v", pos, err)
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative position should fail")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence should fail")
	}
	// Seeking past EOF then reading yields EOF (POSIX allows the seek).
	if _, err := f.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(buf); err != io.EOF {
		t.Errorf("read past EOF err = %v", err)
	}
}

func TestFileClose(t *testing.T) {
	_, _, f := openFixture(t)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosedFile) {
		t.Errorf("double close err = %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosedFile) {
		t.Errorf("read after close err = %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosedFile) {
		t.Errorf("readAt after close err = %v", err)
	}
	if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, ErrClosedFile) {
		t.Errorf("seek after close err = %v", err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	tc := newTestCluster(t, 1)
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	if _, err := c.Open(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	tc := newTestCluster(t, 1)
	paths := make([]string, 20)
	for i := range paths {
		paths[i] = fmt.Sprintf("warm/file-%02d", i)
		tc.pfs.Put(paths[i], []byte{byte(i)})
	}
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	c.Prefetch(context.Background(), paths, 4)
	tc.servers["node-00"].Mover().Flush()
	srv := tc.servers["node-00"]
	for _, p := range paths {
		if !srv.NVMe().Has(p) {
			t.Errorf("path %q not cached after prefetch", p)
		}
	}
}

func TestPrefetchDegenerateArgs(t *testing.T) {
	tc := newTestCluster(t, 1)
	c := tc.client(staticRouter{node: "node-00"}, time.Second)
	c.Prefetch(context.Background(), nil, 0)             // no paths, no panic
	c.Prefetch(context.Background(), []string{"x"}, 100) // parallelism > paths
}
