// Package serverfill seeds the server fill detached on
// context.Background. Until commit 2ba790b, internal/hvac/server.go's
// read handler coalesced a RAM-tier miss with
// s.ramFill.Do(context.Background(), ...): a server Close could not
// cancel a fill in flight, and its followers waited on it unbounded.
// ctxflow's first sweep found it in that commit, and the fix hangs
// fills off a server lifetime context that Close cancels.
package serverfill

import (
	"context"
	"sync"
)

// flight is one in-progress fill; followers wait on done.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// group coalesces concurrent fills of one key, like loadctl.Group.
type group struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func (g *group) Do(ctx context.Context, key string, fetch func(context.Context, string) ([]byte, error)) ([]byte, error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.data, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()
	f.data, f.err = fetch(ctx, key)
	close(f.done)
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	return f.data, f.err
}

type Server struct {
	ramFill *group
	pfs     func(context.Context, string) ([]byte, error)
}

// handleRead answers one wire read; the wire carries no caller context.
func (s *Server) handleRead(path string) ([]byte, error) {
	return s.ramFill.Do(context.Background(), path, s.pfs)
}
