package hvac

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/rpc"
)

// refusingNetwork refuses the first refuse dials to target (every one
// while refuse < 0) and counts the dials it sees there.
type refusingNetwork struct {
	*rpc.InprocNetwork
	target string
	refuse atomic.Int64
	dials  atomic.Int64
}

func (n *refusingNetwork) Dial(name string) (net.Conn, error) {
	if name == n.target {
		n.dials.Add(1)
		if r := n.refuse.Load(); r < 0 || r > 0 && n.refuse.Add(-1) >= 0 {
			return nil, fmt.Errorf("dial %s: %w", name, syscall.ECONNREFUSED)
		}
	}
	return n.InprocNetwork.Dial(name)
}

// onceRouter routes the first read attempt to node-00 and every later
// one to node-01, so a read notes evidence against node-00 at most once.
type onceRouter struct {
	noPlans
	routed atomic.Bool
}

func (*onceRouter) Name() string              { return "once" }
func (*onceRouter) NodeFailed(cluster.NodeID) {}
func (r *onceRouter) Route(string) Decision {
	if r.routed.Swap(true) {
		return Decision{Kind: RouteNode, Node: "node-01"}
	}
	return Decision{Kind: RouteNode, Node: "node-00"}
}

// TestRetryRule holds DESIGN §11.2 on a client built with no retry
// option: a refused dial is retried in place on rpc.RetryPolicy's
// schedule and becomes one piece of evidence only when the budget is
// spent, while a timeout is evidence at once and never retried.
func TestRetryRule(t *testing.T) {
	m := cliMetrics()
	cases := []struct {
		name         string
		refuse       int64 // dials to node-00 refused; < 0 refuses all
		unresponsive bool
		// want: dials to node-00, retries, exhausted budgets, evidence
		dials, retries, exhausted, evidence int64
	}{
		{name: "refused twice", refuse: 2, dials: 3, retries: 2},
		{name: "always refused", refuse: -1, dials: 3, retries: 2, exhausted: 1, evidence: 1},
		{name: "unresponsive", unresponsive: true, dials: 1, evidence: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := newTestCluster(t, 2)
			cl.pfs.Put("f", []byte("payload"))
			cl.servers["node-00"].SetUnresponsive(tc.unresponsive)
			network := &refusingNetwork{InprocNetwork: cl.network, target: "node-00"}
			network.refuse.Store(tc.refuse)
			c, err := NewClient(ClientConfig{
				Endpoints:    cl.endpoints(),
				Network:      network,
				Router:       &onceRouter{},
				PFS:          cl.pfs,
				RPCTimeout:   50 * time.Millisecond,
				TimeoutLimit: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			retries, exhausted := m.retries.Load(), m.retryExhausted.Load()

			got, err := c.Read(context.Background(), "f")
			if err != nil || !bytes.Equal(got, []byte("payload")) {
				t.Fatalf("Read = %q, %v; want the payload", got, err)
			}
			if d := network.dials.Load(); d != tc.dials {
				t.Errorf("dials to node-00 = %d, want %d", d, tc.dials)
			}
			if d := m.retries.Load() - retries; d != tc.retries {
				t.Errorf("ftc_client_retry_attempts_total rose by %d, want %d", d, tc.retries)
			}
			if d := m.retryExhausted.Load() - exhausted; d != tc.exhausted {
				t.Errorf("ftc_client_retry_exhausted_total rose by %d, want %d", d, tc.exhausted)
			}
			if n := c.Stats().Timeouts; n != tc.evidence {
				t.Errorf("Stats().Timeouts = %d, want %d", n, tc.evidence)
			}
		})
	}
}
