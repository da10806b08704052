package hvac

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// This file provides the POSIX-shaped surface the C++ artifact exposed
// through LD_PRELOAD: the training framework calls open/read/seek/close
// and never learns that bytes come from a remote NVMe instead of the
// mounted filesystem. Go programs can't intercept syscalls of other
// processes, so the equivalent integration point is this api — a drop-in
// for the small subset of *os.File the DL input pipelines use.

// ErrClosedFile reports an operation on a closed File.
var ErrClosedFile = errors.New("hvac: file already closed")

// File is an open handle on a cached file. It implements io.Reader,
// io.ReaderAt, io.Seeker and io.Closer. Handles are safe for concurrent
// ReadAt; Read/Seek share an offset and need external synchronization,
// matching *os.File semantics.
type File struct {
	client *Client
	path   string
	size   int64
	// ctx is the open-time context: reads on this handle inherit it,
	// matching the fd's lifetime (POSIX read(2) has no deadline slot).
	// Cancelling the context Open was given aborts in-flight reads.
	ctx context.Context

	mu     sync.Mutex
	offset int64
	closed bool
}

// Open validates that path exists (on cache or PFS) and returns a handle.
// This is the interception point for open(2): it costs one Stat RPC, the
// same metadata shortcut HVAC gives the application — no PFS metadata
// operation when the file is cached.
func (c *Client) Open(ctx context.Context, path string) (*File, error) {
	st, err := c.Stat(ctx, path)
	if err != nil {
		return nil, err
	}
	return &File{client: c, path: path, size: st.Size, ctx: ctx}, nil
}

// Name returns the path the file was opened with.
func (f *File) Name() string { return f.path }

// Size returns the file size observed at open time.
func (f *File) Size() int64 { return f.size }

// Read implements io.Reader over the shared offset.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosedFile
	}
	if f.offset >= f.size {
		return 0, io.EOF
	}
	//ftclint:ignore lockorder Read serializes the shared offset under mu like a POSIX fd; the open-time ctx bounds the I/O, and ReadAt is the lock-free concurrent path
	n, err := f.readAtLocked(p, f.offset)
	f.offset += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt. Safe for concurrent use.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, ErrClosedFile
	}
	f.mu.Unlock()
	if off >= f.size {
		return 0, io.EOF
	}
	return f.readAt(p, off)
}

func (f *File) readAtLocked(p []byte, off int64) (int, error) {
	return f.readAt(p, off)
}

func (f *File) readAt(p []byte, off int64) (int, error) {
	want := int64(len(p))
	if off+want > f.size {
		want = f.size - off
	}
	if want <= 0 {
		return 0, io.EOF
	}
	data, err := f.client.ReadRange(f.ctx, f.path, off, want)
	if err != nil {
		return 0, err
	}
	n := copy(p, data)
	if int64(n) < int64(len(p)) {
		// Short fill because EOF was reached.
		if off+int64(n) >= f.size {
			return n, io.EOF
		}
	}
	return n, nil
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosedFile
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.offset
	case io.SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("hvac: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("hvac: negative seek position %d", pos)
	}
	f.offset = pos
	return pos, nil
}

// Close implements io.Closer. Closing twice returns ErrClosedFile, as
// with *os.File.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosedFile
	}
	f.closed = true
	return nil
}

// Prefetch requests the given paths in the background so that their
// owners pull them onto NVMe before the training loop needs them —
// cache warming without blocking the caller. It returns once all
// requests have been issued; results are discarded, failures ignored
// (a missed prefetch only means a slower first read).
func (c *Client) Prefetch(ctx context.Context, paths []string, parallelism int) {
	if parallelism <= 0 {
		parallelism = 4
	}
	if parallelism > len(paths) {
		parallelism = len(paths)
	}
	var wg sync.WaitGroup
	work := make(chan string)
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				_, _ = c.Read(ctx, p)
			}
		}()
	}
	for _, p := range paths {
		work <- p
	}
	close(work)
	wg.Wait()
}
