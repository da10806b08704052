// Package batchlease seeds a RAM-tier lease leaked on a partial batch
// failure, a class ROADMAP.md's minibatch-read item fears for a server
// answering a minibatch read as head plus stored slices: the leases of
// the resident entries ride the response, but an entry that fails part
// way returns an error status with its own lease still held.
package batchlease

import (
	"errors"
	"memtier"
	"rpc"
)

var errRange = errors.New("range out of bounds")

type Server struct{ ram *memtier.Tier }

type req struct {
	path string
	n    int
}

func (s *Server) readBatch(reqs []req) (rpc.LeasedResp, error) {
	var leases []*memtier.Lease
	var head []byte
	for _, r := range reqs {
		lease, ok := s.ram.Get(r.path)
		if !ok {
			continue // the waiting remainder goes to a continuation
		}
		if len(lease.Bytes()) < r.n {
			return rpc.LeasedResp{Status: 2}, errRange
		}
		head = append(head, byte(r.n))
		leases = append(leases, lease)
	}
	return rpc.LeasedResp{Head: head, Release: func() {
		for _, l := range leases {
			l.Release()
		}
	}}, nil
}
