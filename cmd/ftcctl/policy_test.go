package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ftcache"
	"repro/internal/ftpolicy"
	"repro/internal/telemetry"
)

// TestRunPolicy drives the policy subcommand against the real telemetry
// handler with a live controller behind it: the table must show the
// active strategy and the decision history, and -force must round-trip
// through the control endpoint to pin and release the strategy.
func TestRunPolicy(t *testing.T) {
	nodes := []cluster.NodeID{"node-00", "node-01", "node-02"}
	sw := ftcache.NewRouter(ftcache.KindAdaptive, nodes, 100)
	ctl := ftpolicy.New(ftpolicy.Config{})
	// Commit one decision so the history table is nonempty: pin then
	// release via the controller's own API.
	if err := ctl.Force(ftcache.KindPFS); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Force("auto"); err != nil {
		t.Fatal(err)
	}
	_ = sw // the controller is target-less here; the section still renders

	ts := httptest.NewServer(telemetry.Handler(telemetry.Default()))
	defer ts.Close()

	out := captureStdout(t, func() {
		if err := runPolicy([]string{ts.URL}, ""); err != nil {
			t.Fatalf("runPolicy: %v", err)
		}
	})
	for _, want := range []string{"active=ftpfs", "(auto)", "SEQ", "REASON", "forced", "signals:"} {
		if !strings.Contains(out, want) {
			t.Errorf("policy output missing %q:\n%s", want, out)
		}
	}

	// -force pins through the HTTP control action…
	out = captureStdout(t, func() {
		if err := runPolicy([]string{ts.URL}, "ftnvme"); err != nil {
			t.Fatalf("runPolicy -force: %v", err)
		}
	})
	if !strings.Contains(out, `forced policy "ftnvme"`) || !strings.Contains(out, "forced=ftnvme") {
		t.Errorf("force output missing confirmation/pin:\n%s", out)
	}
	if ctl.Forced() != ftcache.KindNVMe || ctl.Active() != ftcache.KindNVMe {
		t.Errorf("controller not pinned: forced=%q active=%q", ctl.Forced(), ctl.Active())
	}

	// …and an unknown strategy is rejected end to end.
	if err := runPolicy([]string{ts.URL}, "bogus"); err == nil {
		t.Error("force bogus succeeded, want HTTP 400 error")
	}

	// -force auto releases the pin.
	if _, err := captureStdoutErr(t, func() error { return runPolicy([]string{ts.URL}, "auto") }); err != nil {
		t.Fatalf("runPolicy -force auto: %v", err)
	}
	if ctl.Forced() != "" {
		t.Errorf("pin not released: %q", ctl.Forced())
	}
}

// TestRunPolicyNoController reports a friendly line when the endpoint
// has no adaptive controller section.
func TestRunPolicyNoController(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := httptest.NewServer(telemetry.Handler(reg))
	defer ts.Close()
	out := captureStdout(t, func() {
		if err := runPolicy([]string{ts.URL}, ""); err != nil {
			t.Fatalf("runPolicy: %v", err)
		}
	})
	if !strings.Contains(out, "no adaptive policy controller") {
		t.Errorf("missing no-controller line:\n%s", out)
	}
}

// captureStdoutErr is captureStdout for an fn that returns an error.
func captureStdoutErr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	var err error
	out := captureStdout(t, func() { err = fn() })
	return out, err
}
