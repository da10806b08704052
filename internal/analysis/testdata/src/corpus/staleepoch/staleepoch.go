// Package hvac seeds a stale-epoch reply fed to the detector, a class
// ROADMAP.md's versioned-membership item fears once membership carries
// an epoch: a timeout from a request sent under epoch e arrives after
// the ring moved on and the node rejoined, and is counted against the
// rejoined node. The reply must be compared with the current epoch
// before it counts.
package hvac

import "sync/atomic"

type errClass uint8

const (
	classOK errClass = iota
	classApp
	classTimeout
	classConn
	classCtx
)

type Client struct {
	epoch    atomic.Uint64
	evidence map[string]int
}

func (c *Client) noteTimeout(node string) { c.evidence[node]++ }

// onReply settles one reply to a request sent under sentEpoch.
func (c *Client) onReply(node string, sentEpoch uint64, class errClass) {
	if class == classTimeout {
		c.noteTimeout(node)
	}
}
