// Package posixctx seeds the POSIX handle without its open-time
// context. Until commit 2ba790b, internal/hvac/posix.go's File dropped
// the ctx Open was given and read with context.Background(), so
// cancelling the context a file was opened under did not stop its
// reads. ctxflow's first sweep found it in that commit, and File now
// keeps the open-time ctx.
package posixctx

import (
	"context"
	"io"
)

type Client struct {
	replies chan []byte
}

// ReadRange waits for the reply or the caller's context.
func (c *Client) ReadRange(ctx context.Context, path string, off, n int64) ([]byte, error) {
	select {
	case data := <-c.replies:
		return data, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *Client) Stat(ctx context.Context, path string) (int64, error) {
	return 0, ctx.Err()
}

// File is an open handle; POSIX read(2) has no deadline slot.
type File struct {
	client *Client
	path   string
	size   int64
}

func (c *Client) Open(ctx context.Context, path string) (*File, error) {
	size, err := c.Stat(ctx, path)
	if err != nil {
		return nil, err
	}
	return &File{client: c, path: path, size: size}, nil
}

// ReadAt is the lock-free concurrent read path.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.size {
		return 0, io.EOF
	}
	data, err := f.client.ReadRange(context.Background(), f.path, off, int64(len(p)))
	return copy(p, data), err
}
