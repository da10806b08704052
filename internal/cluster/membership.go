package cluster

import (
	"errors"
	"slices"
	"time"
)

// Rejoin refusals (Membership.BeginRejoin).
var (
	ErrRejoinActive = errors.New("rejoin already in progress")
	ErrNotFailed    = errors.New("node is not failed")
)

// Status is a node's phase in one client's membership.
type Status uint8

const (
	Alive     Status = iota // no outstanding suspicion
	Suspect                 // 1..limit-1 consecutive timeouts; still takes traffic
	Failed                  // declared
	Rejoining               // declared, with one rejoin in flight
)

var statusNames = [...]string{"alive", "suspect", "failed", "rejoining"}

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "unknown"
}

// Effect is what a Membership input asks its caller to carry out next.
type Effect uint8

const (
	NoEffect    Effect = iota
	Declare            // plan the node's shares against the placement it is still in, then Drop
	StartRejoin        // a declared node answered Limit probes in a row: rejoin it
	Probe              // the rejoin pings the node once more
	Warm               // warm the node, then Revive it (AbortRejoin if cut short)
)

// Membership is what one client believes about each node, as a state
// machine that reads no clock (times are inputs), starts no goroutine,
// takes no lock and does no I/O, so the explorer can walk every
// interleaving of its inputs. Tracker runs it behind a mutex and
// carries out its effects; DESIGN §8.5 tabulates it.
type Membership struct {
	limit    int // timeouts that declare a node, probes in a row that let it back
	members  []NodeID
	index    map[NodeID]int // into members and nodes; read-only
	nodes    []nodeState
	suspects int // nodes that are Suspect
}

type nodeState struct {
	phase  Status
	count  int       // consecutive timeouts
	since  time.Time // the first of them
	streak int       // consecutive answered probes while failed, at most limit
	placed bool      // Drop took the node off the placement; Revive puts it back
	gen    uint32    // names the hint sender the last Drop started
	hint   hintCursor
}

type hintCursor struct { // one Drop's shares, walked chunk by chunk in receiver order
	shares      []int  // chunks per receiver
	recv, chunk int    // the next chunk to permit
	last        int    // receiver of the last permitted chunk
	stop        func() // ends the sender's call in flight; run by the caller
}

// NewMembership starts every node alive. limit <= 0 selects
// DefaultTimeoutLimit.
func NewMembership(nodes []NodeID, limit int) *Membership {
	if limit <= 0 {
		limit = DefaultTimeoutLimit
	}
	m := &Membership{limit: limit, members: slices.Clone(nodes), index: make(map[NodeID]int, len(nodes))}
	slices.Sort(m.members)
	for i, n := range m.members {
		m.index[n] = i
	}
	m.nodes = make([]nodeState, len(m.members))
	return m
}

func (m *Membership) at(n NodeID) *nodeState {
	if i, ok := m.index[n]; ok {
		return &m.nodes[i]
	}
	return nil // not a member: every input ignores it
}

// Success is a reply from n: a suspect is alive again (reset). A failed
// node stays failed: one late reply never undoes a declaration.
func (m *Membership) Success(n NodeID) (reset bool) {
	st := m.at(n)
	if st == nil || st.phase != Suspect {
		return false
	}
	st.phase, st.count = Alive, 0
	m.suspects--
	return true
}

// Timeout is a timeout-class outcome against n at time at. It returns
// n's count (0 if ignored) and, at the limit, Declare with the time since
// the first timeout.
func (m *Membership) Timeout(n NodeID, at time.Time) (eff Effect, count int, latency time.Duration) {
	st := m.at(n)
	if st == nil || st.phase >= Failed {
		return NoEffect, 0, 0
	}
	if st.count++; st.count == 1 {
		st.phase, st.since = Suspect, at
		m.suspects++
	}
	if st.count < m.limit {
		return NoEffect, st.count, 0
	}
	st.phase, st.streak = Failed, 0
	m.suspects--
	return Declare, st.count, at.Sub(st.since)
}

// Drop is n's recache plan ready, shares chunks per receiver: unless n
// was revived meanwhile or already dropped, the placement drops n and
// sender gen ships the shares through NextHint (stop ends its call).
func (m *Membership) Drop(n NodeID, shares []int, stop func()) (gen uint32, ok bool) {
	st := m.at(n)
	if st == nil || st.phase < Failed || st.placed {
		return 0, false
	}
	st.placed = true
	st.gen++
	st.hint = hintCursor{shares: shares, last: -1, stop: stop}
	return st.gen, true
}

// NextHint permits sender gen of n its next chunk, or ends it (ok false)
// once the shares are sent or n was revived or dropped again. failed: the
// last chunk was not delivered, so that receiver's share is skipped.
func (m *Membership) NextHint(n NodeID, gen uint32, failed bool) (recv, chunk int, ok bool) {
	st := m.at(n)
	if st == nil || !st.placed || st.gen != gen {
		return 0, 0, false
	}
	h := &st.hint
	if failed && h.recv == h.last {
		h.recv, h.chunk = h.recv+1, 0
	}
	for h.recv < len(h.shares) && h.chunk >= h.shares[h.recv] {
		h.recv, h.chunk = h.recv+1, 0
	}
	if h.recv == len(h.shares) {
		return 0, 0, false
	}
	h.last = h.recv
	h.chunk++
	return h.recv, h.chunk - 1, true
}

// ProbeResult is a heartbeat's or rejoin's ping of a failed n: an
// answer extends its streak, silence zeroes it.
func (m *Membership) ProbeResult(n NodeID, answered bool) Effect {
	st := m.at(n)
	if st == nil || st.phase < Failed {
		return NoEffect
	}
	st.streak = min(st.streak+1, m.limit)
	if !answered {
		st.streak = 0
	}
	return m.next(st)
}

// next is the rejoin's step for a node with streak st.streak.
func (m *Membership) next(st *nodeState) Effect {
	switch {
	case st.streak < m.limit:
		return Probe
	case st.phase == Rejoining:
		return Warm
	default:
		return StartRejoin
	}
}

// BeginRejoin makes a failed n Rejoining, one rejoin at a time: Probe
// until its streak reaches the limit, then Warm.
func (m *Membership) BeginRejoin(n NodeID) (Effect, error) {
	st := m.at(n)
	switch {
	case st == nil || st.phase < Failed:
		return NoEffect, ErrNotFailed
	case st.phase == Rejoining:
		return NoEffect, ErrRejoinActive
	}
	st.phase = Rejoining
	return m.next(st), nil
}

// AbortRejoin ends n's rejoin without re-admitting it.
func (m *Membership) AbortRejoin(n NodeID) {
	if st := m.at(n); st != nil && st.phase == Rejoining {
		st.phase = Failed
	}
}

// Revive re-admits a failed n; readd if the placement dropped it, and
// stop, if not nil, ends its hint sender's call.
func (m *Membership) Revive(n NodeID) (ok, readd bool, stop func()) {
	st := m.at(n)
	if st == nil || st.phase < Failed {
		return false, false, nil
	}
	readd, stop = st.placed, st.hint.stop
	*st = nodeState{gen: st.gen}
	return true, readd, stop
}

// list returns, sorted, the members whose phase is below Failed == alive.
func (m *Membership) list(alive bool) []NodeID {
	out := make([]NodeID, 0, len(m.members))
	for i, n := range m.members {
		if (m.nodes[i].phase < Failed) == alive {
			out = append(out, n)
		}
	}
	return out
}
