package repro_test

// End-to-end test of the shipped binaries: builds cmd/ftcserver,
// cmd/ftcctl and cmd/slurmfail, boots a two-node fleet over real TCP
// with a directory-backed PFS, and drives it exactly as an operator
// would. This is the closest Go equivalent of the artifact's
// "srun ftc_server + LD_PRELOAD basic_test" smoke procedure.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string // the tools buildBinaries compiled; TestMain removes it
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildBinaries compiles the three tools once per test run.
func buildBinaries(t *testing.T) (server, ctl, slurmfail string) {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "ftc-tools-"); buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator),
			"./cmd/ftcserver", "./cmd/ftcctl", "./cmd/slurmfail")
		if msg, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, msg)
		}
	})
	if buildErr != nil {
		t.Fatalf("build tools: %v", buildErr)
	}
	return filepath.Join(binDir, "ftcserver"), filepath.Join(binDir, "ftcctl"),
		filepath.Join(binDir, "slurmfail")
}

// freePort grabs an ephemeral TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server on %s never came up", addr)
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	server, ctl, _ := buildBinaries(t)

	// Stage a small dataset into the directory-backed PFS.
	pfsDir := t.TempDir()
	for i := 0; i < 8; i++ {
		p := filepath.Join(pfsDir, "train", fmt.Sprintf("f%02d", i))
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte(strings.Repeat("x", 1000+i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Boot two servers.
	var addrs []string
	for i := 0; i < 2; i++ {
		addr := freePort(t)
		addrs = append(addrs, addr)
		cmd := exec.Command(server,
			"-node", fmt.Sprintf("node-%04d", i),
			"-listen", addr,
			"-pfs", pfsDir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		proc := cmd.Process
		t.Cleanup(func() { proc.Kill(); cmd.Wait() })
	}
	for _, a := range addrs {
		waitListening(t, a)
	}
	servers := fmt.Sprintf("node-0000=%s,node-0001=%s", addrs[0], addrs[1])

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(ctl, append([]string{"-servers", servers}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("ftcctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// ping: both up.
	if out := run("ping"); strings.Count(out, ": ok") != 2 {
		t.Fatalf("ping output:\n%s", out)
	}
	// get: content round-trips through the cache.
	if out := run("get", "train/f00"); out != strings.Repeat("x", 1000) {
		t.Fatalf("get returned %d bytes", len(out))
	}
	// stat: cached after the read (mover is async; poll).
	deadline := time.Now().Add(3 * time.Second)
	for {
		out := run("stat", "train/f00")
		if strings.Contains(out, "cached: true") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never cached:\n%s", out)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// ring: every path maps to one of the two nodes.
	out := run("ring", "train/f00", "train/f01", "train/f02")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.Contains(line, "node-000") {
			t.Fatalf("ring line %q", line)
		}
	}
	// bench: runs and reports latency percentiles.
	out = run("-iters", "50", "bench", "train/f01", "train/f02")
	if !strings.Contains(out, "latency ms:") || !strings.Contains(out, "reads:      100") {
		t.Fatalf("bench output:\n%s", out)
	}
	// stats: servers report cache contents.
	out = run("stats")
	if strings.Count(out, "objects=") != 2 {
		t.Fatalf("stats output:\n%s", out)
	}
}

func TestSlurmfailBinaryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	_, _, slurmfail := buildBinaries(t)
	log := filepath.Join(t.TempDir(), "log.sacct")

	if out, err := exec.Command(slurmfail, "gen", "-o", log, "-jobs", "5000", "-seed", "2").CombinedOutput(); err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	out, err := exec.Command(slurmfail, "analyze", log).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, out)
	}
	for _, want := range []string{"Table I", "Fig 1", "Fig 2(a)", "Fig 2(b)", "MTBF analysis", "per-node MTBF estimate"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("analyze output missing %q", want)
		}
	}
}
