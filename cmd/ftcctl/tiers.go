package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runTiers prints every server's per-tier storage breakdown (RAM / NVMe
// / PFS capacity, occupancy, hit ratio, and for RAM and NVMe the
// admissions each turned away) in one fleet-wide table — the operator
// view of where reads are actually being served from, and of a cache
// tier that sits empty (low USE%, nothing rejected) or full and defended
// (rejecting). Each telemetry endpoint's /debug/ftcache names the nodes,
// their tiers and each tier's capacity; its /metrics carries every count.
func runTiers(urls []string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(u string) (*http.Response, error) {
		resp, err := client.Get(u)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", u, err)
		}
		return resp, nil
	}

	// debugState mirrors telemetry.DebugState loosely: only the
	// sections map matters here, and the server sections are decoded
	// structurally so the tool keeps working as sections grow fields.
	type debugState struct {
		Sections map[string]json.RawMessage `json:"sections"`
	}
	type tierRow struct {
		Tier     string `json:"tier"`
		Capacity int64  `json:"capacity"`
	}
	type serverSection struct {
		Node  string    `json:"node"`
		Tiers []tierRow `json:"tiers"`
	}
	type nodeTiers struct {
		node   string
		tiers  []tierRow
		series map[string]int64 // this endpoint's /metrics, by name{labels}
	}
	var fleet []nodeTiers
	for _, base := range urls {
		base = strings.TrimSuffix(base, "/")
		resp, err := get(base + "/debug/ftcache?events=0")
		if err != nil {
			return err
		}
		var st debugState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decode %s/debug/ftcache: %w", base, err)
		}
		var series map[string]int64
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
			if series == nil {
				if series, err = scrape(get, base+"/metrics"); err != nil {
					return err
				}
			}
			fleet = append(fleet, nodeTiers{node: sec.Node, tiers: sec.Tiers, series: series})
		}
	}
	if len(fleet) == 0 {
		return fmt.Errorf("no server tier sections found at %s (telemetry not serving, or servers predate the tier breakdown)", strings.Join(urls, ", "))
	}
	sort.Slice(fleet, func(i, j int) bool { return fleet[i].node < fleet[j].node })

	fmt.Printf("%-12s %-5s %12s %12s %6s %10s %10s %10s %7s\n",
		"NODE", "TIER", "CAPACITY", "BYTES", "USE%", "REJECTED", "HITS", "MISSES", "HIT%")
	for _, nt := range fleet {
		val := func(name string) int64 { return nt.series[fmt.Sprintf("ftc_server_%s{node=%q}", name, nt.node)] }
		for _, tr := range nt.tiers {
			capacity, use, rejected := "-", "-", "-"
			var bytes, hits, misses, total int64
			switch tr.Tier {
			case "pfs":
				// PFS reports serves, not hit/miss pairs: every serve is
				// a fallback, and its hit ratio is the fallback fraction.
				hits, total = val("pfs_fallbacks_total"), val("reads_total")
			default:
				rejectedName := "nvme_fill_rejected_total"
				if tr.Tier == "ram" {
					rejectedName = "ram_admit_rejected_total"
				}
				bytes, hits, misses = val(tr.Tier+"_bytes"), val(tr.Tier+"_hits_total"), val(tr.Tier+"_misses_total")
				total = hits + misses
				rejected = fmt.Sprintf("%d", val(rejectedName))
			}
			if tr.Capacity > 0 {
				capacity = fmt.Sprintf("%d", tr.Capacity)
				use = fmt.Sprintf("%.1f", 100*float64(bytes)/float64(tr.Capacity))
			}
			ratio := 0.0
			if total > 0 {
				ratio = float64(hits) / float64(total)
			}
			fmt.Printf("%-12s %-5s %12s %12d %6s %10s %10d %10d %6.1f%%\n",
				nt.node, tr.Tier, capacity, bytes, use, rejected, hits, misses, 100*ratio)
		}
	}
	return nil
}

// scrape reads a Prometheus text exposition into name{labels} → value,
// skipping comments and any sample that is not an integer.
func scrape(get func(string) (*http.Response, error), u string) (map[string]int64, error) {
	resp, err := get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", u, err)
	}
	return out, nil
}
