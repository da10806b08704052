package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/hvac"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// TestRunTiers drives the tiers subcommand against a real server's
// telemetry handler: the table must show one row per tier for the node,
// built from the same /debug/ftcache payload production serves.
func TestRunTiers(t *testing.T) {
	pfs := storage.NewPFS()
	pfs.Put("hot", []byte("hot-object-bytes"))
	pfs.Put("cold", []byte("cold-object-byte"))
	// RAM room for one of the two 16-byte objects.
	srv := hvac.NewServer(hvac.ServerConfig{
		Node:        "node-00",
		RAMCapacity: 16,
	}, pfs)
	defer srv.Close()
	// Serve reads directly so the tier counters are nonzero: "hot" fills
	// the tier, and the single read of "cold" is turned away by it.
	for i := 0; i < 32; i++ {
		path := "hot"
		if i == 31 {
			path = "cold"
		}
		if status, _ := srv.Handle(hvac.OpRead, (&hvac.ReadReq{Path: path, Length: -1}).Marshal()); status != rpc.StatusOK {
			t.Fatalf("read %d: status %d", i, status)
		}
	}

	ts := httptest.NewServer(telemetry.Handler(telemetry.Default()))
	defer ts.Close()

	out := captureStdout(t, func() {
		if err := runTiers([]string{ts.URL}); err != nil {
			t.Fatalf("runTiers: %v", err)
		}
	})
	for _, want := range []string{"NODE", "REJECTED", "node-00", "ram", "nvme", "pfs"} {
		if !strings.Contains(out, want) {
			t.Errorf("tiers output missing %q:\n%s", want, out)
		}
	}
	// The RAM row: full (16 of 16 bytes, 100.0%) with one admission rejected.
	ram := regexp.MustCompile(`node-00\s+ram\s+16\s+16\s+100\.0\s+1\s`)
	if !ram.MatchString(out) {
		t.Errorf("RAM row does not show a full tier with 1 rejected admission:\n%s", out)
	}
}

func TestRunTiersNoSections(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"sections":{}}`))
	}))
	defer ts.Close()
	if err := runTiers([]string{ts.URL}); err == nil {
		t.Fatal("want error when no server sections are present")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 1024)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
