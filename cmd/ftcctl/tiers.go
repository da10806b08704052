package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// runTiers fetches /debug/ftcache from each telemetry endpoint and
// prints every server's per-tier storage breakdown (RAM / NVMe / PFS
// capacity, occupancy, hit ratio, and for RAM the admissions it turned
// away) in one fleet-wide table — the operator view of where reads are
// actually being served from, and of a RAM tier that sits empty (low
// USE%, nothing rejected) or full and defended (rejecting).
func runTiers(urls []string) error {
	client := &http.Client{Timeout: 10 * time.Second}

	// debugState mirrors telemetry.DebugState loosely: only the
	// sections map matters here, and the server sections are decoded
	// structurally so the tool keeps working as sections grow fields.
	type debugState struct {
		Sections map[string]json.RawMessage `json:"sections"`
	}
	type tierRow struct {
		Tier     string  `json:"tier"`
		Capacity int64   `json:"capacity"`
		Bytes    int64   `json:"bytes"`
		Objects  int64   `json:"objects"`
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		HitRatio float64 `json:"hit_ratio"`
		Rejected *int64  `json:"rejected"` // RAM only
		Served   int64   `json:"served"`
		Leases   int64   `json:"leases"`
	}
	type serverSection struct {
		Node  string    `json:"node"`
		Tiers []tierRow `json:"tiers"`
	}

	type nodeTiers struct {
		node  string
		tiers []tierRow
	}
	var fleet []nodeTiers
	for _, base := range urls {
		u := strings.TrimSuffix(base, "/") + "/debug/ftcache?events=0"
		resp, err := client.Get(u)
		if err != nil {
			return fmt.Errorf("fetch %s: %w", u, err)
		}
		var st debugState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decode %s: %w", u, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fetch %s: HTTP %d", u, resp.StatusCode)
		}
		for name, raw := range st.Sections {
			if !strings.HasPrefix(name, "server:") {
				continue
			}
			var sec serverSection
			if err := json.Unmarshal(raw, &sec); err != nil || len(sec.Tiers) == 0 {
				continue // pre-tier server build, or a foreign section shape
			}
			if sec.Node == "" {
				sec.Node = strings.TrimPrefix(name, "server:")
			}
			fleet = append(fleet, nodeTiers{node: sec.Node, tiers: sec.Tiers})
		}
	}
	if len(fleet) == 0 {
		return fmt.Errorf("no server tier sections found at %s (telemetry not serving, or servers predate the tier breakdown)", strings.Join(urls, ", "))
	}
	sort.Slice(fleet, func(i, j int) bool { return fleet[i].node < fleet[j].node })

	fmt.Printf("%-12s %-5s %12s %12s %6s %10s %10s %10s %7s\n",
		"NODE", "TIER", "CAPACITY", "BYTES", "USE%", "REJECTED", "HITS", "MISSES", "HIT%")
	for _, nt := range fleet {
		for _, tr := range nt.tiers {
			use := "-"
			if tr.Capacity > 0 {
				use = fmt.Sprintf("%.1f", 100*float64(tr.Bytes)/float64(tr.Capacity))
			}
			capacity := "-"
			if tr.Capacity > 0 {
				capacity = fmt.Sprintf("%d", tr.Capacity)
			}
			rejected := "-"
			if tr.Rejected != nil {
				rejected = fmt.Sprintf("%d", *tr.Rejected)
			}
			hits, misses := tr.Hits, tr.Misses
			if tr.Tier == "pfs" {
				// PFS reports serves, not hit/miss pairs: every serve is
				// a fallback, and its hit ratio is the fallback fraction.
				hits = tr.Served
			}
			fmt.Printf("%-12s %-5s %12s %12d %6s %10s %10d %10d %6.1f%%\n",
				nt.node, tr.Tier, capacity, tr.Bytes, use, rejected, hits, misses, 100*tr.HitRatio)
		}
	}
	return nil
}
