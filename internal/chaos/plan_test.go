package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/failure"
)

func testNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = string(rune('a' + i))
	}
	return nodes
}

// shapes are the schedules the generator tests walk: the uniform soak
// phase and both phased presets.
func shapes() map[string][]Phase {
	unit, pfs := 400*time.Millisecond, 2*time.Millisecond
	return map[string][]Phase{
		"uniform":                    PhasesUniform(3 * time.Second),
		"calm-burst-heal-contention": PhasesCalmBurstHealContention(unit, pfs),
		"contention-first":           PhasesContentionFirst(unit, pfs),
	}
}

// phaseAt returns the phase in force at t.
func phaseAt(phases []Phase, t time.Duration) Phase {
	for _, ph := range phases {
		if t < ph.Duration {
			return ph
		}
		t -= ph.Duration
	}
	return Phase{}
}

func TestGeneratePlanDeterministic(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	a := GeneratePlan(99, nodes, PhasesUniform(3*time.Second))
	b := GeneratePlan(99, nodes, PhasesUniform(3*time.Second))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans — replay is broken")
	}
	c := GeneratePlan(100, nodes, PhasesUniform(3*time.Second))
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("plan has no events")
	}
}

// Same (seed, nodes, phases) input must yield the identical plan —
// that's what makes a failed adaptive soak replayable.
func TestGeneratePhasedPlanDeterministic(t *testing.T) {
	nodes := testNodes(16)
	phases := PhasesCalmBurstHealContention(400*time.Millisecond, 2*time.Millisecond)
	for _, seed := range []int64{1, 7, 42} {
		a := GeneratePlan(seed, nodes, phases)
		b := GeneratePlan(seed, nodes, phases)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plans differ:\n%+v\nvs\n%+v", seed, a, b)
		}
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: empty plan", seed)
		}
	}
	// Different seeds should (overwhelmingly) differ.
	a := GeneratePlan(1, nodes, phases)
	b := GeneratePlan(2, nodes, phases)
	if reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("seeds 1 and 2 produced identical event sequences")
	}
}

// Every phased plan must end healed when the executor walks it: each
// crash met by its restart at or before the horizon, no node faulted
// twice at once, and the final PFS delay cleared.
func TestGeneratePhasedPlanEndsHealed(t *testing.T) {
	nodes := testNodes(16)
	for _, phases := range [][]Phase{
		PhasesCalmBurstHealContention(400*time.Millisecond, 2*time.Millisecond),
		PhasesContentionFirst(400*time.Millisecond, 2*time.Millisecond),
	} {
		p := GeneratePlan(42, nodes, phases)
		down := make(map[string]failure.Fault) // node → durable fault it holds
		lastDelay := time.Duration(0)
		for _, st := range timeline(p.Events) {
			if st.at > p.Horizon {
				t.Fatalf("step past horizon: %+v (horizon %s)", st, p.Horizon)
			}
			switch {
			case st.ev.Fault == failure.PFSDelay && st.heal:
				lastDelay = 0
			case st.ev.Fault == failure.PFSDelay:
				lastDelay = st.ev.Delay
			case st.ev.For == 0:
				// a conn-drop holds nothing
			case st.heal:
				if f, ok := down[st.ev.Node]; !ok || f != st.ev.Fault {
					t.Fatalf("heal of a fault not held: %+v (held %v)", st.ev, down)
				}
				delete(down, st.ev.Node)
			default:
				if f, ok := down[st.ev.Node]; ok {
					t.Fatalf("%+v while %s still holds %s", st.ev, st.ev.Node, f)
				}
				down[st.ev.Node] = st.ev.Fault
			}
		}
		if len(down) != 0 {
			t.Fatalf("plan ends with nodes still down: %v", down)
		}
		if lastDelay != 0 {
			t.Fatalf("plan ends with PFS delay %s still installed", lastDelay)
		}
	}
}

// Every plan ends healed: each durable fault (any but a conn-drop) lasts
// For > 0 and heals by the horizon, the PFS delay included.
func TestGeneratePlanAllFaultsHeal(t *testing.T) {
	for name, phases := range shapes() {
		for seed := int64(1); seed <= 10; seed++ {
			p := GeneratePlan(seed, testNodes(16), phases)
			for _, ev := range p.Events {
				durable := ev.Fault != failure.ConnDrop
				if durable != (ev.For > 0) || ev.At+ev.For > p.Horizon {
					t.Fatalf("%s seed %d: %+v does not heal by the horizon %v", name, seed, ev, p.Horizon)
				}
			}
		}
	}
}

// The cap as GeneratePlan states it: a node holds one durable fault at a
// time, and a crash, partition, asym-send or blackhole starts only while
// fewer than max(1, MaxDownFrac × nodes) nodes hold a durable fault of
// any kind — latency and asym-recv count against it too.
func TestGeneratePlanBoundsSimultaneousDown(t *testing.T) {
	nodes := testNodes(16)
	for name, phases := range shapes() {
		for seed := int64(1); seed <= 20; seed++ {
			until := make(map[string]time.Duration) // node → when its fault heals
			for _, ev := range GeneratePlan(seed, nodes, phases).Events {
				if ev.Fault == failure.PFSDelay {
					continue // fleet-wide, no node
				}
				if until[ev.Node] > ev.At {
					t.Fatalf("%s seed %d: %+v while %s holds a fault until %v", name, seed, ev, ev.Node, until[ev.Node])
				}
				held := 0
				for _, u := range until {
					if u > ev.At {
						held++
					}
				}
				switch ev.Fault {
				case failure.Crash, failure.Partition, failure.AsymSend, failure.Blackhole:
					if limit := max(1, int(float64(len(nodes))*phaseAt(phases, ev.At).MaxDownFrac)); held >= limit {
						t.Fatalf("%s seed %d: %+v starts with %d nodes down, cap %d", name, seed, ev, held, limit)
					}
				}
				if ev.For > 0 {
					until[ev.Node] = ev.At + ev.For
				}
			}
		}
	}
}

// The burst phase must actually be a burst: the bulk of the crash
// events land inside it, none in calm/heal.
func TestGeneratePhasedPlanPhaseShape(t *testing.T) {
	unit := 400 * time.Millisecond
	phases := PhasesCalmBurstHealContention(unit, 2*time.Millisecond)
	p := GeneratePlan(7, testNodes(16), phases)
	calmEnd := unit
	burstEnd := 2 * unit
	inCalm, inBurst := 0, 0
	for _, ev := range p.Events {
		if ev.Fault != failure.Crash {
			continue
		}
		switch {
		case ev.At < calmEnd:
			inCalm++
		case ev.At < burstEnd:
			inBurst++
		}
	}
	if inCalm != 0 {
		t.Fatalf("calm phase has %d crashes", inCalm)
	}
	if inBurst < 3 {
		t.Fatalf("burst phase has only %d crashes", inBurst)
	}
}

func TestTimeline(t *testing.T) {
	const s = time.Second
	phased := GeneratePlan(1, testNodes(4), []Phase{
		{Name: "calm", Duration: s},
		{Name: "contention", Duration: s, PFSDelay: 5 * time.Millisecond},
		{Name: "storm", Duration: s, PFSDelay: 9 * time.Millisecond},
		{Name: "drain", Duration: s},
	})
	for _, tc := range []struct {
		name   string
		events []failure.Event
		want   []string
	}{
		{"heal at At+For",
			[]failure.Event{{At: s, Node: "a", Fault: failure.Partition, For: s / 2}},
			[]string{"1s partition a", "1.5s heal partition a"}},
		{"heal before fault at one instant",
			[]failure.Event{{At: 2 * s, Node: "b", Fault: failure.Latency, For: s}, {At: s, Node: "a", For: s}},
			[]string{"1s crash a", "2s heal crash a", "2s latency b", "3s heal latency b"}},
		{"For 0 never heals",
			[]failure.Event{{At: s, Node: "a"}, {At: s, Node: "b", Fault: failure.ConnDrop}},
			[]string{"1s crash a", "1s conn-drop b"}},
		{"PFS delay cleared at each phase end", phased.Events,
			[]string{"1s pfs-delay 5ms", "2s heal pfs-delay", "2s pfs-delay 9ms", "3s heal pfs-delay"}},
	} {
		var got []string
		for _, st := range timeline(tc.events) {
			line := fmt.Sprintf("%v %s", st.at, st.ev.Fault)
			if st.heal {
				line = fmt.Sprintf("%v heal %s", st.at, st.ev.Fault)
			}
			if st.ev.Node != "" {
				line += " " + st.ev.Node
			}
			if st.ev.Delay > 0 && !st.heal {
				line += " " + st.ev.Delay.String()
			}
			got = append(got, line)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: timeline = %q, want %q", tc.name, got, tc.want)
		}
	}
}
