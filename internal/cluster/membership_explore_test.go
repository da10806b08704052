package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/hashring"
)

// The explorer runs a breadth-first search over every interleaving of
// inputs to two clients' Memberships over three nodes, each client's
// executor modelled step by step as the live client runs it: plan and
// Drop, the hint sender's chunk-by-chunk asks, the heartbeat's recovery
// probes, a rejoin's pings, warm-up and revive or abort, and an
// operator's ReviveNode. The environment crashes and restarts nodes and
// lets a reply to a live node time out (a false positive), within
// budgets that keep the space finite. Every reachable state is checked
// against the invariants below; a violation fails with the shortest path
// to it, and with that path's faults as a []failure.Event plan a chaos
// soak can replay.
const (
	exNodes  = 3
	exLimit  = 2  // timeouts that declare, probes that re-admit
	exKeys   = 24 // the key set owners are compared over
	exChunk  = 2  // keys per hint chunk, so a share spans chunks
	exFaulty = 2  // nodes that fail; the last only inherits
	exStepAt = 10 * time.Millisecond
)

// exEvents bounds the disruptions on one path: crashes, restarts,
// false positives (one client's replies from a node that is up time out
// until it declares the node), operator revives and cancelled warm-ups.
const exEvents = 2

var (
	exMembers = []NodeID{"node-00", "node-01", "node-02"}
	exKeySet  = func() []string {
		keys := make([]string, exKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("ds/%02d", i)
		}
		return keys
	}()
	// exRings[mask] is the ring over the members whose bits are set.
	exRings = func() (rings [1 << exNodes]*hashring.Ring) {
		for mask := range rings {
			rings[mask] = hashring.NewWithNodes(hashring.Config{}, exSubset(uint8(mask)))
		}
		return rings
	}()
)

func exSubset(mask uint8) []NodeID {
	var out []NodeID
	for i, n := range exMembers {
		if mask&(1<<i) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// exPlan is one Drop's plan: failed's keys by receiver, receivers sorted.
type exPlan struct {
	receivers []NodeID
	keys      [][]string
	shares    []int
}

var exPlans = map[[2]uint8]*exPlan{}

// planFor is what the client's Router.PlanRecache answers for node i
// against the placement mask, checked for exact cover on the way: every
// key i owns has exactly one receiver, the owner once i is dropped.
func planFor(i int, mask uint8) (*exPlan, error) {
	if p := exPlans[[2]uint8{uint8(i), mask}]; p != nil {
		return p, nil
	}
	p := &exPlan{}
	ring := exRings[mask]
	if ring.Contains(exMembers[i]) {
		moves := ring.PlanRecache(exMembers[i], exKeySet).Moves
		after := exRings[mask&^(1<<i)]
		for _, key := range exKeySet {
			owner, _ := ring.Owner(key)
			var got []NodeID
			for r, keys := range moves {
				if slices.Contains(keys, key) {
					got = append(got, r)
				}
			}
			want, heir := after.Owner(key)
			switch {
			case owner != exMembers[i] || !heir: // not i's, or nobody left to inherit it
				if len(got) != 0 {
					return nil, fmt.Errorf("plan for %s moves %s, which %s owns", exMembers[i], key, owner)
				}
			case len(got) != 1 || got[0] != want:
				return nil, fmt.Errorf("plan for %s sends %s to %v, want exactly %s", exMembers[i], key, got, want)
			}
		}
		for r := range moves {
			p.receivers = append(p.receivers, r)
		}
		slices.Sort(p.receivers)
		for _, r := range p.receivers {
			p.keys = append(p.keys, moves[r])
			p.shares = append(p.shares, (len(moves[r])+exChunk-1)/exChunk)
		}
	}
	exPlans[[2]uint8{uint8(i), mask}] = p
	return p, nil
}

// exSender is a hint sender as the model tracks it: which chunks it was
// permitted, and what became of them.
type exSender struct {
	gen      uint32 // 0: no sender
	planMask uint8  // the placement its plan was made against
	pending  bool   // a permitted chunk's outcome is not yet reported
	failed   bool   // some chunk of it failed
	last     [2]int // the last permitted (receiver, chunk); -1s before any
	badRecv  int    // receiver whose chunk failed, -1 if none
	sent     uint32 // permitted chunks, one bit per (receiver, chunk)
}

// exClient is one client: its Membership, its router's placement, and
// the executor's work in flight.
type exClient struct {
	m        Membership
	mask     uint8                // nodes on the placement
	planning uint8                // declarations whose plan and Drop are still to run
	send     [exNodes][2]exSender // a replan can start a sender while the last still runs
	rejoin   [exNodes]uint8       // 0 none, 1 probing, 2 warming
	// specGen is the spec's own record of the sender that may run per
	// node: set by an accepted Drop, cleared by a revive.
	specGen [exNodes]uint32
}

const (
	rjNone uint8 = iota
	rjProbing
	rjWarming
)

type exWorld struct {
	c      [2]exClient
	up     uint8
	fp     [2]uint8 // per client, nodes whose replies time out while up
	events int
}

func (w *exWorld) clone() *exWorld {
	out := *w
	for i := range out.c {
		out.c[i].m.nodes = slices.Clone(w.c[i].m.nodes)
	}
	return &out
}

// key encodes everything the model's future depends on; every field
// is small, so one byte each.
func (w *exWorld) key() string {
	b := make([]byte, 0, 128)
	for _, c := range w.c {
		for i, st := range c.m.nodes {
			b = append(b, byte(st.phase), byte(st.count), byte(st.streak), bit(st.placed), byte(st.gen),
				byte(st.hint.recv), byte(st.hint.chunk), byte(st.hint.last), c.rejoin[i], byte(c.specGen[i]))
			for _, s := range c.send[i] {
				b = append(b, byte(s.gen), s.planMask, bit(s.pending), bit(s.failed), byte(s.last[0]), byte(s.last[1]),
					byte(s.badRecv), byte(s.sent), byte(s.sent>>8), byte(s.sent>>16))
			}
		}
		b = append(b, byte(c.m.suspects), c.mask, c.planning)
	}
	return string(append(b, w.up, w.fp[0], w.fp[1], byte(w.events)))
}

func bit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// exStep is one input: a label for the counterexample, and the fault it
// injects when it is one.
type exStep struct {
	label string
	fault *failure.Event
}

var t0 time.Time

func (c *exClient) drop(i int) error {
	c.planning &^= 1 << i
	plan, err := planFor(i, c.mask)
	if err != nil {
		return err
	}
	if gen, ok := c.m.Drop(exMembers[i], plan.shares, nil); ok {
		c.mask &^= 1 << i
		c.specGen[i] = gen
		slot := 0
		if c.send[i][0].gen != 0 {
			slot = 1
		}
		if c.send[i][slot].gen != 0 {
			return fmt.Errorf("model overflow: a third hint sender for %s", exMembers[i])
		}
		c.send[i][slot] = exSender{gen: gen, planMask: c.mask | 1<<i, last: [2]int{-1, -1}, badRecv: -1}
	}
	return nil
}

func (c *exClient) revive(i int) {
	if ok, readd, _ := c.m.Revive(exMembers[i]); ok {
		if readd {
			c.mask |= 1 << i
		}
		c.specGen[i] = 0
	}
}

// hint is node i's sender in slot asking for its next chunk, the last
// chunk's outcome being failed.
func (c *exClient) hint(i, slot int, failed bool) error {
	s := &c.send[i][slot]
	if failed {
		s.failed, s.badRecv = true, s.last[0]
	}
	s.pending = false
	r, chunk, ok := c.m.NextHint(exMembers[i], s.gen, failed)
	plan, _ := planFor(i, s.planMask)
	if !ok {
		if !s.failed && c.specGen[i] == s.gen {
			for r, n := range plan.shares {
				for k := 0; k < n; k++ {
					if s.sent&(1<<(8*r+k)) == 0 {
						return fmt.Errorf("sender %d of %s ended with chunk %d of %s unsent", s.gen, exMembers[i], k, plan.receivers[r])
					}
				}
			}
		}
		*s = exSender{}
		return nil
	}
	switch {
	case c.specGen[i] != s.gen:
		return fmt.Errorf("sender %d of %s permitted a chunk after %s was revived or planned again", s.gen, exMembers[i], exMembers[i])
	case r == s.badRecv:
		return fmt.Errorf("sender %d of %s permitted %s another chunk after one failed", s.gen, exMembers[i], plan.receivers[r])
	case r >= len(plan.shares) || chunk >= plan.shares[r] || s.sent&(1<<(8*r+chunk)) != 0:
		return fmt.Errorf("sender %d of %s permitted chunk %d of receiver %d twice or out of range", s.gen, exMembers[i], chunk, r)
	case r < s.last[0] || r == s.last[0] && chunk < s.last[1]:
		return fmt.Errorf("sender %d of %s went back to chunk %d of receiver %d", s.gen, exMembers[i], chunk, r)
	}
	s.sent |= 1 << (8*r + chunk)
	s.last, s.pending = [2]int{r, chunk}, true
	return nil
}

// probe is one recovery probe of node i, answered when up; it starts a
// rejoin as the heartbeat's OnRevive does.
func (c *exClient) probe(i int, up bool) {
	if c.m.ProbeResult(exMembers[i], up) == StartRejoin && c.rejoin[i] == rjNone {
		if eff, err := c.m.BeginRejoin(exMembers[i]); err == nil {
			c.rejoin[i] = rjProbing
			if eff == Warm {
				c.rejoin[i] = rjWarming
			}
		}
	}
}

// ping is one of the rejoin's own probes.
func (c *exClient) ping(i int, up bool) {
	switch eff := c.m.ProbeResult(exMembers[i], up); {
	case !up:
		c.m.AbortRejoin(exMembers[i])
		c.rejoin[i] = rjNone
	case eff == Warm:
		c.rejoin[i] = rjWarming
	}
}

// warmed ends the rejoin of node i: re-admitted, or cut short.
func (c *exClient) warmed(i int, done bool) {
	c.rejoin[i] = rjNone
	if done {
		c.revive(i)
	} else {
		c.m.AbortRejoin(exMembers[i])
	}
}

// successors lists every input enabled in w with its successor.
func (w *exWorld) successors(at time.Duration) (out []*exWorld, steps []exStep, errs []error) {
	add := func(label string, fault *failure.Event, f func(*exWorld) error) {
		next := w.clone()
		err := f(next)
		out, steps, errs = append(out, next), append(steps, exStep{label, fault}), append(errs, err)
	}
	for i, n := range exMembers {
		bit := uint8(1) << i
		up := w.up&bit != 0
		if w.events < exEvents && i < exFaulty {
			if up {
				add("crash "+string(n), &failure.Event{At: at, Node: string(n), Kill: true},
					func(x *exWorld) error { x.up &^= bit; x.events++; return nil })
			} else {
				add("restart "+string(n), nil, func(x *exWorld) error { x.up |= bit; x.events++; return nil })
			}
		}
		for ci := range w.c {
			c := &w.c[ci]
			who := fmt.Sprintf("client %d: ", ci)
			st := c.m.nodes[i]
			fp := w.fp[ci]&bit != 0
			if st.phase == Suspect || st.phase == Alive && (!up || fp) {
				add(who+"reply from "+string(n), nil, func(x *exWorld) error {
					xc := &x.c[ci]
					if x.up&bit != 0 && x.fp[ci]&bit == 0 {
						xc.m.Success(n)
					} else if eff, _, _ := xc.m.Timeout(n, t0); eff == Declare {
						xc.planning |= bit
						x.fp[ci] &^= bit
					}
					return nil
				})
			}
			if st.phase < Failed && up && !fp && i < exFaulty && w.events < exEvents {
				add(who+"false positives on "+string(n),
					&failure.Event{At: at, Node: string(n), Fault: failure.AsymRecv, For: exLimit * exStepAt},
					func(x *exWorld) error { x.fp[ci] |= bit; x.events++; return nil })
			}
			if c.planning&bit != 0 {
				add(who+"plan and drop "+string(n), nil, func(x *exWorld) error { return x.c[ci].drop(i) })
			}
			for slot, s := range c.send[i] {
				if s.gen == 0 {
					continue
				}
				sender := fmt.Sprintf("hint sender %d of %s", s.gen, n)
				add(who+sender+" asks", nil, func(x *exWorld) error { return x.c[ci].hint(i, slot, false) })
				if s.pending {
					add(who+sender+" fails a chunk and asks", nil, func(x *exWorld) error { return x.c[ci].hint(i, slot, true) })
				}
			}
			if st.phase >= Failed && c.rejoin[i] == rjNone && (up || st.streak > 0) {
				add(who+"recovery probe of "+string(n), nil, func(x *exWorld) error { x.c[ci].probe(i, x.up&bit != 0); return nil })
			}
			switch c.rejoin[i] {
			case rjProbing:
				add(who+"rejoin pings "+string(n), nil, func(x *exWorld) error { x.c[ci].ping(i, x.up&bit != 0); return nil })
			case rjWarming:
				add(who+"rejoin warms and revives "+string(n), nil, func(x *exWorld) error { x.c[ci].warmed(i, true); return nil })
				if w.events < exEvents {
					add(who+"rejoin warm-up of "+string(n)+" cancelled", nil, func(x *exWorld) error { x.events++; x.c[ci].warmed(i, false); return nil })
				}
			}
			if st.phase >= Failed && w.events < exEvents {
				add(who+"ReviveNode "+string(n), nil, func(x *exWorld) error { x.events++; x.c[ci].revive(i); return nil })
			}
		}
	}
	return out, steps, errs
}

// check tests the state invariants.
func (w *exWorld) check() error {
	var placed [2]uint8
	for ci, c := range w.c {
		for i, st := range c.m.nodes {
			if st.placed {
				placed[ci] |= 1 << i
			}
		}
	}
	// Two clients that have dropped the same nodes route every key alike.
	if placed[0] == placed[1] {
		for _, key := range exKeySet {
			a, _ := exRings[w.c[0].mask].Owner(key)
			b, _ := exRings[w.c[1].mask].Owner(key)
			if a != b {
				return fmt.Errorf("clients that dropped %v disagree on %s: %s vs %s", exSubset(placed[0]), key, a, b)
			}
		}
	}
	for ci := range w.c {
		c := &w.c[ci]
		// The placement holds every node the membership has not dropped,
		// and every node it holds alive or suspect: a revive that lands
		// during the plan leaves both alive.
		for i, st := range c.m.nodes {
			if on := c.mask&(1<<i) != 0; on == st.placed || st.phase < Failed && !on {
				return fmt.Errorf("client %d: %s is %s in the membership (dropped %v) but on the placement %v",
					ci, exMembers[i], st.phase, st.placed, on)
			}
		}
		if err := c.converges(w.up); err != nil {
			return fmt.Errorf("client %d: %w", ci, err)
		}
	}
	return nil
}

// converges runs the recovery the heartbeat drives on every failed
// node that is up — finish its plan, probe, rejoin, warm, revive — and
// reports one that does not end alive and on the placement.
func (c *exClient) converges(up uint8) error {
	for i, n := range exMembers {
		if up&(1<<i) == 0 || c.m.nodes[i].phase < Failed {
			continue
		}
		x := *c
		x.m.nodes = slices.Clone(c.m.nodes)
		for step := 0; step < 4*exLimit+4 && x.m.nodes[i].phase >= Failed; step++ {
			switch {
			case x.planning&(1<<i) != 0:
				if err := x.drop(i); err != nil {
					return err
				}
			case x.rejoin[i] == rjProbing:
				x.ping(i, true)
			case x.rejoin[i] == rjWarming:
				x.warmed(i, true)
			default:
				x.probe(i, true)
			}
		}
		if x.m.nodes[i].phase >= Failed || x.mask&(1<<i) == 0 {
			return fmt.Errorf("%s is up but recovery leaves it failed or off the placement", n)
		}
	}
	return nil
}

// explore returns the number of states reached, or the first violation
// with the path to it.
func explore() (int, error) {
	start := &exWorld{up: 1<<exNodes - 1}
	for ci := range start.c {
		start.c[ci].m = *NewMembership(exMembers, exLimit)
		start.c[ci].mask = 1<<exNodes - 1
	}
	type node struct {
		parent int
		step   exStep
	}
	seen := map[string]bool{start.key(): true}
	trail := []node{{parent: -1}}
	queue, ids, depth := []*exWorld{start}, []int{0}, []int{0}
	if err := start.check(); err != nil {
		return 1, err
	}
	for len(queue) > 0 {
		w, id, d := queue[0], ids[0], depth[0]
		queue, ids, depth = queue[1:], ids[1:], depth[1:]
		next, steps, errs := w.successors(time.Duration(d+1) * exStepAt)
		for k, x := range next {
			err := errs[k]
			if err == nil {
				if key := x.key(); !seen[key] {
					seen[key] = true
					err = x.check()
					queue, ids, depth = append(queue, x), append(ids, len(trail)), append(depth, d+1)
					trail = append(trail, node{parent: id, step: steps[k]})
				} else {
					continue
				}
			} else {
				trail = append(trail, node{parent: id, step: steps[k]})
			}
			if err != nil {
				var path []exStep
				for at := len(trail) - 1; trail[at].parent >= 0; at = trail[at].parent {
					path = append(path, trail[at].step)
				}
				slices.Reverse(path)
				return len(seen), fmt.Errorf("%w\n%s", err, counterexample(path))
			}
		}
	}
	return len(seen), nil
}

// counterexample renders a path: its inputs in order, then its faults as
// a []failure.Event plan with each crash healed at its restart.
func counterexample(path []exStep) string {
	var b strings.Builder
	var plan []failure.Event
	for k, s := range path {
		fmt.Fprintf(&b, "  %2d. %s\n", k+1, s.label)
		if s.fault != nil {
			plan = append(plan, *s.fault)
		}
		if node, ok := strings.CutPrefix(s.label, "restart "); ok {
			for j := len(plan) - 1; j >= 0; j-- {
				if plan[j].Node == node && plan[j].Fault == failure.Crash && plan[j].For == 0 {
					plan[j].For = time.Duration(k+1)*exStepAt - plan[j].At
					break
				}
			}
		}
	}
	b.WriteString("  plan: []failure.Event{\n")
	for _, ev := range plan {
		fault := "Crash"
		if ev.Fault == failure.AsymRecv {
			fault = "AsymRecv"
		}
		fmt.Fprintf(&b, "    {At: %v, Node: %q, Fault: failure.%s, Kill: %v, For: %v},\n", ev.At, ev.Node, fault, ev.Kill, ev.For)
	}
	b.WriteString("  }")
	return b.String()
}

// TestExploreMembership checks every reachable state of two clients over
// three nodes: placement matches membership, clients that dropped the
// same nodes agree on owners, each plan covers the dropped node's keys
// once, hint chunks stop at a revive, a replan or a failed chunk, and
// every failed node that is up recovers.
func TestExploreMembership(t *testing.T) {
	start := time.Now()
	states, err := explore()
	if err != nil {
		t.Fatalf("after %d states: %v", states, err)
	}
	t.Logf("explored %d states in %v", states, time.Since(start).Round(time.Millisecond))
}
