package chaos

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
)

// startEcho boots an echo RPC server named name on the inner network.
func startEcho(t *testing.T, inner rpc.Network, name string) *rpc.Server {
	t.Helper()
	srv := rpc.NewServer(rpc.HandlerFunc(func(op uint16, payload []byte) (uint16, []byte) {
		return rpc.StatusOK, payload
	}))
	lis, err := inner.Listen(name)
	if err != nil {
		t.Fatalf("listen %s: %v", name, err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dialClient dials dst from the given chaos view.
func dialClient(t *testing.T, view rpc.Network, dst string) *rpc.Client {
	t.Helper()
	conn, err := view.Dial(dst)
	if err != nil {
		t.Fatalf("dial %s: %v", dst, err)
	}
	cli := rpc.NewClient(conn)
	t.Cleanup(func() { cli.Close() })
	return cli
}

func echo(cli *rpc.Client, timeout time.Duration, msg string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, status, err := cli.Call(ctx, 1, []byte(msg))
	if err != nil {
		return "", err
	}
	if status != rpc.StatusOK {
		return "", errors.New("bad status")
	}
	return string(resp), nil
}

func TestPassThroughNoFaults(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1})
	startEcho(t, ctl.innerNet(), "srv")
	cli := dialClient(t, ctl.Network("cli"), "srv")
	got, err := echo(cli, time.Second, "hello through the relay")
	if err != nil || got != "hello through the relay" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	if ctl.OpenConns() != 1 {
		t.Errorf("open conns = %d, want 1", ctl.OpenConns())
	}
}

func TestPartitionTimesOutThenHeals(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1})
	startEcho(t, ctl.innerNet(), "srv")
	cli := dialClient(t, ctl.Network("cli"), "srv")

	if _, err := echo(cli, time.Second, "before"); err != nil {
		t.Fatalf("pre-fault echo: %v", err)
	}
	ctl.Isolate("srv")
	if _, err := echo(cli, 50*time.Millisecond, "during"); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("partitioned echo err = %v, want ErrTimeout", err)
	}
	ctl.HealNode("srv")
	// The dropped frame is gone but the connection survived the
	// partition: the next call must succeed with correct bytes.
	got, err := echo(cli, time.Second, "after-heal")
	if err != nil || got != "after-heal" {
		t.Fatalf("post-heal echo = %q, %v", got, err)
	}
	counts := ctl.FaultCounts()
	if counts[KindFrameDrop] == 0 {
		t.Error("no frame drops recorded during partition")
	}
	if counts[KindPartition] == 0 {
		t.Error("partition installation not recorded")
	}
}

func TestAsymmetricCutDirectionality(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1})
	startEcho(t, ctl.innerNet(), "srv")

	// Establish first (a cut in either direction also blocks the
	// handshake — the SYN-ACK would be lost), then cut only srv→cli:
	// the request still arrives and the echo server processes it, but
	// the response vanishes and the caller times out.
	cli := dialClient(t, ctl.Network("cli"), "srv")
	if _, err := echo(cli, time.Second, "pre"); err != nil {
		t.Fatalf("pre-cut echo: %v", err)
	}
	ctl.CutOneWay("srv", "cli")
	if _, err := echo(cli, 50*time.Millisecond, "lost-response"); !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (response direction cut)", err)
	}
	ctl.Heal("srv", "cli")
	if got, err := echo(cli, time.Second, "healed"); err != nil || got != "healed" {
		t.Fatalf("post-heal echo = %q, %v", got, err)
	}

	// Other sources are unaffected by the (srv, cli) rule.
	other := dialClient(t, ctl.Network("other"), "srv")
	if got, err := echo(other, time.Second, "bystander"); err != nil || got != "bystander" {
		t.Fatalf("bystander echo = %q, %v", got, err)
	}
}

func TestLatencyDelaysButDelivers(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1})
	startEcho(t, ctl.innerNet(), "srv")
	cli := dialClient(t, ctl.Network("cli"), "srv")

	const delay = 30 * time.Millisecond
	ctl.SetLinkLatency("cli", "srv", delay, 0)
	start := time.Now()
	got, err := echo(cli, 2*time.Second, "slow")
	elapsed := time.Since(start)
	if err != nil || got != "slow" {
		t.Fatalf("latency echo = %q, %v", got, err)
	}
	// Both directions are delayed: request + response ≥ 2×delay.
	if elapsed < 2*delay {
		t.Errorf("roundtrip %v under injected 2×%v", elapsed, delay)
	}
	if ctl.FaultCounts()[KindFrameDelay] < 2 {
		t.Error("frame delays not recorded for both directions")
	}
}

func TestBlackholeDialBoundedTimeout(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1, DialTimeout: 40 * time.Millisecond})
	startEcho(t, ctl.innerNet(), "srv")
	ctl.Blackhole("srv")

	start := time.Now()
	_, err := ctl.Network("cli").Dial("srv")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("black-holed dial succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("black-holed dial err = %v, want a net.Error timeout", err)
	}
	if elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("black-holed dial took %v, want ≈ configured 40ms", elapsed)
	}
	ctl.Unblackhole("srv")
	cli := dialClient(t, ctl.Network("cli"), "srv")
	if got, err := echo(cli, time.Second, "ok"); err != nil || got != "ok" {
		t.Fatalf("post-unblackhole echo = %q, %v", got, err)
	}
}

func TestDropConnsKillsMidStream(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1})
	startEcho(t, ctl.innerNet(), "srv")
	cli := dialClient(t, ctl.Network("cli"), "srv")
	if _, err := echo(cli, time.Second, "warm"); err != nil {
		t.Fatalf("warm echo: %v", err)
	}
	if n := ctl.DropConns("srv"); n != 1 {
		t.Fatalf("DropConns = %d, want 1", n)
	}
	if _, err := echo(cli, time.Second, "dead"); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("post-drop echo err = %v, want ErrClosed", err)
	}
	if ctl.OpenConns() != 0 {
		t.Errorf("open conns = %d after drop", ctl.OpenConns())
	}
	if ctl.FaultCounts()[KindConnDrop] != 1 {
		t.Error("conn drop not recorded")
	}
}

func TestLargePayloadSurvivesRelay(t *testing.T) {
	ctl := New(rpc.NewInprocNetwork(), Config{Seed: 1})
	startEcho(t, ctl.innerNet(), "srv")
	cli := dialClient(t, ctl.Network("cli"), "srv")
	big := bytes.Repeat([]byte{0xA5}, 1<<20)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, status, err := cli.Call(ctx, 1, big)
	if err != nil || status != rpc.StatusOK {
		t.Fatalf("big echo: status=%d err=%v", status, err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("1MiB payload corrupted through the relay")
	}
}

func TestLinkRNGDeterministic(t *testing.T) {
	a := New(rpc.NewInprocNetwork(), Config{Seed: 5})
	b := New(rpc.NewInprocNetwork(), Config{Seed: 5})
	ra, rb := a.linkRNG("x", "y", false), b.linkRNG("x", "y", false)
	for i := 0; i < 16; i++ {
		if ra.Int63() != rb.Int63() {
			t.Fatal("same seed, same link: diverging jitter streams")
		}
	}
	if a.linkRNG("x", "y", false).Int63() == a.linkRNG("x", "y", true).Int63() &&
		a.linkRNG("x", "y", false).Int63() == a.linkRNG("y", "x", false).Int63() {
		t.Error("link/direction not decorrelated")
	}
}

// innerNet exposes the wrapped network for test server setup.
func (c *Controller) innerNet() rpc.Network { return c.inner }
