package ftpolicy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ftcache"
)

func testCfg() Config {
	return Config{
		CooldownTicks:   2,
		FailHigh:        4,
		FailLow:         2,
		BurstQuietTicks: 1, // single-quiet-tick exit keeps scenarios short
		PFSLatencyHigh:  10 * time.Millisecond,
		CalmTicks:       5,
		AllowNoFT:       true,
	}.withDefaults()
}

// runDecide drives the pure function through a signal sequence and
// returns the committed transitions.
func runDecide(cfg Config, st *decideState, sigs []Signals) []string {
	var switches []string
	for _, sig := range sigs {
		if to, reason, ok := decide(cfg, st, sig); ok {
			st.active = to
			st.lastSwitch = sig.Tick
			switches = append(switches, string(to)+":"+reason)
		}
	}
	return switches
}

func TestDecideBurstEntersAndExits(t *testing.T) {
	cfg := testCfg()
	st := decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	sigs := []Signals{
		{Tick: 1, Failures: 5},                // ≥ FailHigh → burst
		{Tick: 2, Failures: 2, Recoveries: 1}, // 3 ≥ FailLow → stay
		{Tick: 3},                             // 0 < FailLow → exit
		{Tick: 4},
		{Tick: 5},
		{Tick: 6},
	}
	got := runDecide(cfg, &st, sigs)
	want := []string{"ftpfs:failure-burst", "ftnvme:default"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

func TestDecideContentionDominatesBurst(t *testing.T) {
	cfg := testCfg()
	st := decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	// Both regimes fire at once: contention must win (a slow PFS makes
	// per-read redirection the one unworkable policy).
	to, reason, ok := decide(cfg, &st, Signals{Tick: 1, Failures: 10, PFSLatMs: 50})
	if ok {
		t.Fatalf("unexpected switch to %s (%s): already on ftnvme", to, reason)
	}
	if !st.inBurst || !st.inContention {
		t.Fatalf("latches = burst:%v contention:%v, want both", st.inBurst, st.inContention)
	}
	// From ftpfs the same signals must pull to ftnvme with the
	// contention reason.
	st = decideState{active: ftcache.KindPFS, lastSwitch: -10, inBurst: true, inContention: true}
	to, reason, ok = decide(cfg, &st, Signals{Tick: 1, Failures: 10, PFSLatMs: 50})
	if !ok || to != ftcache.KindNVMe || reason != "pfs-contention" {
		t.Fatalf("got (%s,%s,%v), want (ftnvme,pfs-contention,true)", to, reason, ok)
	}
}

func TestDecideCalmReachesNoFT(t *testing.T) {
	cfg := testCfg()
	st := decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	var sigs []Signals
	for i := 1; i <= cfg.CalmTicks+1; i++ {
		sigs = append(sigs, Signals{Tick: int64(i)})
	}
	got := runDecide(cfg, &st, sigs)
	if len(got) != 1 || got[0] != "noft:calm" {
		t.Fatalf("transitions = %v, want [noft:calm]", got)
	}
	// Without AllowNoFT the same calm stretch holds ftnvme forever.
	cfg.AllowNoFT = false
	st = decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	if got := runDecide(cfg, &st, sigs); len(got) != 0 {
		t.Fatalf("AllowNoFT=false transitions = %v, want none", got)
	}
}

func TestDecideCooldownHolds(t *testing.T) {
	cfg := testCfg() // CooldownTicks=2
	st := decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	// Burst at tick 1 switches; contention at tick 2 is inside the
	// cooldown and must hold, then commit at tick 3.
	got := runDecide(cfg, &st, []Signals{
		{Tick: 1, Failures: 5},
		{Tick: 2, Failures: 5, PFSLatMs: 50},
		{Tick: 3, Failures: 5, PFSLatMs: 50},
	})
	want := []string{"ftpfs:failure-burst", "ftnvme:pfs-contention"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

// The hysteresis contract: a signal oscillating between the Low and
// High watermarks commits exactly one switch in, one out — never a
// flap per oscillation.
func TestDecideHysteresisNoFlap(t *testing.T) {
	cfg := testCfg() // FailHigh=4, FailLow=2
	st := decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	sigs := []Signals{{Tick: 1, Failures: 5}} // enter burst
	for i := 2; i <= 40; i++ {
		f := 3.0 // between Low and High: stays latched
		if i%2 == 0 {
			f = 2.0 // exactly FailLow: still ≥ Low, stays latched
		}
		sigs = append(sigs, Signals{Tick: int64(i), Failures: f})
	}
	for i := 41; i <= 43; i++ { // quiet (fewer than CalmTicks): exit burst only
		sigs = append(sigs, Signals{Tick: int64(i)})
	}
	got := runDecide(cfg, &st, sigs)
	want := []string{"ftpfs:failure-burst", "ftnvme:default"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("oscillating signal flapped: %v, want %v", got, want)
	}
}

// Burst exit needs BurstQuietTicks CONSECUTIVE quiet ticks: isolated
// quiet ticks between declaration clusters must not end the regime.
func TestDecideBurstQuietStreak(t *testing.T) {
	cfg := testCfg()
	cfg.BurstQuietTicks = 3
	st := decideState{active: ftcache.KindNVMe, lastSwitch: -10}
	sigs := []Signals{
		{Tick: 1, Failures: 5}, // enter burst → ftpfs
		{Tick: 2},              // quiet ×1
		{Tick: 3},              // quiet ×2
		{Tick: 4, Failures: 5}, // cluster resets the streak
		{Tick: 5},              // quiet ×1
		{Tick: 6},              // quiet ×2
		{Tick: 7},              // quiet ×3 → exit → ftnvme
	}
	got := runDecide(cfg, &st, sigs)
	want := []string{"ftpfs:failure-burst", "ftnvme:default"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	if st.inBurst || st.quietStreak != 0 {
		t.Fatalf("post-exit state: inBurst=%v quietStreak=%d", st.inBurst, st.quietStreak)
	}
}

// Controller-level hysteresis: drive Tick with failure-rate oscillation
// injected through the detector-callback accumulators and assert the
// attached Switchable commits exactly the two regime switches.
func TestControllerOscillationNoFlap(t *testing.T) {
	nodes := []cluster.NodeID{"n0", "n1", "n2", "n3"}
	sw := ftcache.NewSwitchable(nodes, 100, ftcache.KindNVMe)
	c := New(testCfg())
	c.targets = []*ftcache.Strategy{sw}

	c.failures.Add(5)
	c.Tick() // enter burst → ftpfs
	for i := 0; i < 40; i++ {
		c.failures.Add(2 + int64(i%2)) // oscillate in [FailLow, FailHigh)
		c.Tick()
	}
	if sw.Kind() != ftcache.KindPFS {
		t.Fatalf("active after oscillation = %s, want ftpfs", sw.Kind())
	}
	if got := sw.Switches(); got != 1 {
		t.Fatalf("switches during oscillation = %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		c.Tick() // quiet ticks: exit burst, then calm → noft
	}
	if got := c.Switches(); got != 3 {
		for _, d := range c.Decisions(0) {
			t.Logf("decision: %+v", d)
		}
		t.Fatalf("total committed switches = %d, want 3 (in, out, calm)", got)
	}
	if err := Replay(c.cfg, c.Decisions(0)); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestControllerForce(t *testing.T) {
	nodes := []cluster.NodeID{"n0", "n1"}
	sw := ftcache.NewSwitchable(nodes, 100, ftcache.KindNVMe)
	c := New(testCfg())
	c.targets = []*ftcache.Strategy{sw}

	if err := c.Force("bogus"); err == nil {
		t.Fatal("Force(bogus) succeeded")
	}
	if err := c.Force(ftcache.KindPFS); err != nil {
		t.Fatal(err)
	}
	if sw.Kind() != ftcache.KindPFS || c.Forced() != ftcache.KindPFS {
		t.Fatalf("after force: sw=%s forced=%q", sw.Kind(), c.Forced())
	}
	// Pinned: a burst signal must not move the strategy.
	c.failures.Add(50)
	c.Tick()
	if sw.Kind() != ftcache.KindPFS {
		t.Fatalf("forced pin did not hold: %s", sw.Kind())
	}
	ds := c.Decisions(1)
	if len(ds) != 1 || !ds[0].Forced || ds[0].Reason != "forced" {
		t.Fatalf("forced decision not logged: %+v", ds)
	}
	if err := c.Force("auto"); err != nil {
		t.Fatal(err)
	}
	if c.Forced() != "" {
		t.Fatalf("auto did not unpin: %q", c.Forced())
	}
	if err := Replay(c.cfg, c.Decisions(0)); err != nil {
		t.Fatalf("replay with forced entries: %v", err)
	}
}

// Replay must reject a log whose recorded outcome does not follow from
// its recorded signals — the tamper/decode check.
func TestReplayDetectsCorruption(t *testing.T) {
	c := New(testCfg())
	c.failures.Add(5)
	c.Tick()
	log := c.Decisions(0)
	if len(log) != 1 {
		t.Fatalf("decisions = %d, want 1", len(log))
	}
	if err := Replay(c.cfg, log); err != nil {
		t.Fatalf("clean replay: %v", err)
	}
	bad := append([]Decision(nil), log...)
	bad[0].To = ftcache.KindNoFT
	if err := Replay(c.cfg, bad); err == nil {
		t.Fatal("replay accepted a corrupted transition")
	}
	bad = append([]Decision(nil), log...)
	bad[0].Signals.Failures = 0
	if err := Replay(c.cfg, bad); err == nil {
		t.Fatal("replay accepted corrupted signals")
	}
}

// Knob profiles must follow the regime: contention widens fan-out,
// burst deepens retries, recovery restores defaults.
func TestControllerKnobProfiles(t *testing.T) {
	var (
		mu       sync.Mutex
		replicas []int
		retries  []int
	)
	cfg := testCfg()
	cfg.Knobs = &Knobs{
		SetReplicas:    func(n int) { mu.Lock(); replicas = append(replicas, n); mu.Unlock() },
		SetRetryBudget: func(n int) { mu.Lock(); retries = append(retries, n); mu.Unlock() },
	}
	c := New(cfg)
	c.failures.Add(5)
	c.Tick() // burst → ftpfs: replicas 1, retries 3
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	// Past cooldown and burst exited → default: replicas 0, retries -1.
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(replicas) != "[1 0]" || fmt.Sprint(retries) != "[3 -1]" {
		t.Fatalf("knob history: replicas=%v retries=%v", replicas, retries)
	}
}

// Concurrent Tick/Force/Decisions under -race: the controller's locks
// and atomics must keep the bookkeeping coherent.
func TestControllerConcurrency(t *testing.T) {
	nodes := []cluster.NodeID{"n0", "n1", "n2"}
	sw := ftcache.NewSwitchable(nodes, 100, ftcache.KindNVMe)
	c := New(testCfg())
	c.targets = []*ftcache.Strategy{sw}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g {
				case 0:
					c.failures.Add(int64(i % 7))
					c.Tick()
				case 1:
					if i%3 == 0 {
						_ = c.Force(ftcache.KindPFS)
					} else {
						_ = c.Force("auto")
					}
				default:
					_ = c.Decisions(8)
					_ = c.Active()
					_ = sw.Route("/data/x")
				}
			}
		}(g)
	}
	wg.Wait()
	if err := Replay(c.cfg, c.Decisions(0)); err != nil {
		t.Fatalf("replay after concurrent run: %v", err)
	}
}
