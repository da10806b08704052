package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ftcache"
)

// tiny returns a fast scale for unit tests.
func tiny() Scale {
	return Scale{
		Nodes:          []int{64, 1024},
		Repeats:        1,
		DatasetDivisor: 64,
		Jobs:           20000,
		Fig6bTrials:    15,
		Fig6bNodes:     64,
		Seed:           1,
	}
}

func TestTable1ShapeAndFormat(t *testing.T) {
	r := NewSweep(tiny()).Table1()
	tab := r.Table
	if tab.TotalJobs == 0 || tab.TotalFailures == 0 {
		t.Fatal("empty table")
	}
	if math.Abs(tab.FailureRatio()-0.2504) > 0.03 {
		t.Errorf("failure ratio %.3f far from paper's 0.2504", tab.FailureRatio())
	}
	rows := r.Tabulate().Rows
	for i, want := range []struct {
		typ   string
		count int
	}{
		{"total_jobs", tab.TotalJobs}, {"total_failures", tab.TotalFailures},
		{"node_fail", tab.NodeFail}, {"timeout", tab.Timeout}, {"job_fail", tab.JobFail},
	} {
		if rows[i][0] != want.typ || rows[i][1] != strconv.Itoa(want.count) {
			t.Errorf("row %d = %v, want type %s count %d", i, rows[i], want.typ, want.count)
		}
	}
}

func TestFig1ShapeAndFormat(t *testing.T) {
	r := NewSweep(tiny()).Fig1()
	if len(r.Weeks) != 27 {
		t.Fatalf("weeks = %d", len(r.Weeks))
	}
	if r.OverallMinutes < 40 || r.OverallMinutes > 130 {
		t.Errorf("overall mean = %.1f min", r.OverallMinutes)
	}
	tab := r.Tabulate()
	if tab.Header[0] != "week" || len(tab.Rows) != 27 {
		t.Errorf("header %v with %d rows, want week first and 27 rows", tab.Header, len(tab.Rows))
	}
}

func TestFig2ShapeAndFormat(t *testing.T) {
	r := NewSweep(tiny()).Fig2()
	if len(r.ByNodes) != 5 || len(r.ByElapsed) != 5 {
		t.Fatal("bucket counts wrong")
	}
	top := r.ByNodes[len(r.ByNodes)-1]
	low := r.ByNodes[0]
	if top.Total() > 0 && top.NodeFailureClassShare() <= low.NodeFailureClassShare() {
		t.Error("node-failure class share should grow with node count")
	}
	tab := r.Tabulate()
	if !strings.Contains(tab.Title, "Fig 2(a)") || !strings.Contains(tab.Title, "Fig 2(b)") {
		t.Errorf("title %q does not name both panels", tab.Title)
	}
	for i, row := range tab.Rows {
		if want := []string{"nodes", "elapsed"}[i/5]; row[0] != want {
			t.Errorf("row %d dimension %q, want %q", i, row[0], want)
		}
	}
}

func TestFig5aOrderingAndScaling(t *testing.T) {
	r := NewSweep(tiny()).Fig5a()
	byKey := map[[2]interface{}]Fig5Row{}
	for _, row := range r.Rows {
		byKey[[2]interface{}{row.Nodes, row.Strategy}] = row
	}
	for _, n := range []int{64, 1024} {
		noft := byKey[[2]interface{}{n, ftcache.KindNoFT}]
		pfs := byKey[[2]interface{}{n, ftcache.KindPFS}]
		nvme := byKey[[2]interface{}{n, ftcache.KindNVMe}]
		if noft.Mean >= pfs.Mean || noft.Mean >= nvme.Mean {
			t.Errorf("n=%d: NoFT (%v) should be fastest (pfs %v, nvme %v)",
				n, noft.Mean, pfs.Mean, nvme.Mean)
		}
	}
	// Strong scaling: 1024 nodes faster than 64 for every strategy.
	for _, k := range fig5Strategies {
		if byKey[[2]interface{}{1024, k}].Mean >= byKey[[2]interface{}{64, k}].Mean {
			t.Errorf("%s: no speedup from 64 to 1024 nodes", k)
		}
	}
	if !strings.Contains(r.Tabulate().Title, "Fig 5(a)") {
		t.Error("title missing")
	}
}

func TestFig5bHeadline(t *testing.T) {
	r := NewSweep(tiny()).Fig5b()
	for _, n := range []int{64, 1024} {
		var noft, pfs, nvme Fig5Row
		for _, row := range r.Rows {
			if row.Nodes != n {
				continue
			}
			switch row.Strategy {
			case ftcache.KindNoFT:
				noft = row
			case ftcache.KindPFS:
				pfs = row
			case ftcache.KindNVMe:
				nvme = row
			}
		}
		if !noft.Aborted {
			t.Errorf("n=%d: NoFT should abort under failures", n)
		}
		if nvme.Mean >= pfs.Mean {
			t.Errorf("n=%d: FT w/ NVMe (%v) should beat FT w/ PFS (%v)", n, nvme.Mean, pfs.Mean)
		}
		if nvme.OverheadVsBase <= 0 || pfs.OverheadVsBase <= nvme.OverheadVsBase {
			t.Errorf("n=%d: overheads nvme=%.2f pfs=%.2f", n, nvme.OverheadVsBase, pfs.OverheadVsBase)
		}
		if g := r.Gap(n); g <= 0 || g > 0.8 {
			t.Errorf("n=%d: gap = %.2f", n, g)
		}
	}
	notes := r.Tabulate().Notes
	if len(notes) != 2 {
		t.Fatalf("notes = %q, want one gap line per scale", notes)
	}
	for _, n := range notes {
		if !strings.Contains(n, "beats FT w/ PFS") {
			t.Errorf("note %q is not a gap line", n)
		}
	}
}

func TestFig6aTrends(t *testing.T) {
	r := NewSweep(tiny()).Fig6a()
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PFSRedirect <= row.NoFailure {
			t.Errorf("n=%d: redirect epochs (%v) should exceed clean (%v)",
				row.Nodes, row.PFSRedirect, row.NoFailure)
		}
		if row.NVMeVictim <= row.NoFailure {
			t.Errorf("n=%d: victim epoch (%v) should exceed clean (%v)",
				row.Nodes, row.NVMeVictim, row.NoFailure)
		}
		if row.NVMeRecached >= row.PFSRedirect {
			t.Errorf("n=%d: recached epochs (%v) should beat redirect epochs (%v)",
				row.Nodes, row.NVMeRecached, row.PFSRedirect)
		}
	}
	// The recached series approaches no-failure as nodes grow.
	small, large := r.Rows[0], r.Rows[1]
	relSmall := float64(small.NVMeRecached) / float64(small.NoFailure)
	relLarge := float64(large.NVMeRecached) / float64(large.NoFailure)
	if relLarge >= relSmall+0.05 {
		t.Errorf("recached/no-failure ratio should not grow with scale: %.3f → %.3f",
			relSmall, relLarge)
	}
	if !strings.Contains(r.Tabulate().Title, "Fig 6(a)") {
		t.Error("title missing")
	}
}

func TestFig6bTrends(t *testing.T) {
	r := NewSweep(tiny()).Fig6b()
	pts := r.Points
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ReceiverMean < pts[i-1].ReceiverMean {
			t.Errorf("receivers should be non-decreasing: %v", pts)
		}
		if pts[i].FilesPerNodeMean > pts[i-1].FilesPerNodeMean {
			t.Errorf("files per node should be non-increasing")
		}
	}
	// Diminishing returns past 500 vnodes (paper's plateau).
	grow10to100 := pts[2].ReceiverMean - pts[0].ReceiverMean
	grow500to1000 := pts[4].ReceiverMean - pts[3].ReceiverMean
	if grow500to1000 > grow10to100 {
		t.Error("receiver growth should flatten at high vnode counts")
	}
	if h := r.Tabulate().Header; h[0] != "vnodes" {
		t.Errorf("header %v, want vnodes first", h)
	}
}

func TestScalePresets(t *testing.T) {
	p := PaperScale()
	if p.Jobs != 181933 || p.Fig6bTrials != 500 || p.Fig6bNodes != 1024 {
		t.Errorf("paper scale wrong: %+v", p)
	}
	if p.DatasetDivisor != 1 || p.Repeats != 3 {
		t.Errorf("paper scale fidelity wrong: %+v", p)
	}
}
