package trainsim

import (
	"fmt"

	"repro/internal/dltrain"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/hashring"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xhash"
)

// Prepared holds what every run over one dataset has in common: the
// file paths, one owner table per (nodes, vnodes, placement) and one
// shuffle order per (seed, epoch), each built on first use. A sweep
// prepares its dataset once and runs every Config through it.
//
// Nothing here is written after it is built: a run copies its owner
// table, clones its ring and only reads its order. A Prepared is not
// safe for concurrent use.
type Prepared struct {
	ds     workload.Dataset
	paths  []string
	tables map[[2]int]*ownerTable // {nodes, vnodes}; vnodes 0 is modulo
	orders map[[2]int64][]int     // {seed, epoch}
}

// ownerTable is the initial placement of every file on one fleet.
type ownerTable struct {
	owner  []int32
	ring   *hashring.Ring // nil for modulo placement
	names  []hashring.NodeID
	rankOf map[hashring.NodeID]int32
}

// Prepare formats ds's paths.
func Prepare(ds workload.Dataset) *Prepared {
	return &Prepared{
		ds:     ds,
		paths:  ds.AllPaths(),
		tables: make(map[[2]int]*ownerTable),
		orders: make(map[[2]int64][]int),
	}
}

// Paths returns the dataset's file paths; callers must not modify them.
func (p *Prepared) Paths() []string { return p.paths }

// Run executes one simulated run over the prepared dataset, with the
// same Result as Run(cfg). It panics when cfg.Dataset is another one.
func (p *Prepared) Run(cfg Config) Result {
	if cfg.Dataset != p.ds {
		panic("trainsim: Config.Dataset is not the prepared dataset")
	}
	if cfg.Nodes <= 0 || cfg.Epochs <= 0 || cfg.LocalBatch <= 0 {
		panic("trainsim: Nodes, Epochs, LocalBatch must be positive")
	}
	m := &model{
		cfg:   cfg,
		prep:  p,
		eng:   sim.New(),
		rng:   newRNG(cfg.Seed),
		sched: failure.NewSchedule(cfg.Failures),
	}
	m.init()
	m.eng.At(0, m.startEpoch)
	m.eng.Run()
	m.res.Total = m.eng.Now()
	m.res.Strategy = string(cfg.Strategy)
	m.res.Nodes = cfg.Nodes
	return m.res
}

// table returns the owner table for cfg's fleet: the hash ring for
// FT w/ NVMe, HVAC's static modulo placement otherwise.
func (p *Prepared) table(cfg Config) *ownerTable {
	vnodes := 0
	if cfg.Strategy == ftcache.KindNVMe {
		vnodes = cfg.VirtualNodes
		if vnodes <= 0 {
			vnodes = hashring.DefaultVirtualNodes
		}
	}
	key := [2]int{cfg.Nodes, vnodes}
	if t, ok := p.tables[key]; ok {
		return t
	}
	t := &ownerTable{
		owner:  make([]int32, len(p.paths)),
		names:  make([]hashring.NodeID, cfg.Nodes),
		rankOf: make(map[hashring.NodeID]int32, cfg.Nodes),
	}
	for i := range t.names {
		t.names[i] = hashring.NodeID(fmt.Sprintf("node-%04d", i))
		t.rankOf[t.names[i]] = int32(i)
	}
	if vnodes > 0 {
		t.ring = hashring.NewWithNodes(hashring.Config{VirtualNodes: vnodes}, t.names)
		for i, path := range p.paths {
			o, _ := t.ring.Owner(path)
			t.owner[i] = t.rankOf[o]
		}
	} else {
		for i, path := range p.paths {
			t.owner[i] = int32(xhash.FNV1aString(path) % uint64(cfg.Nodes))
		}
	}
	p.tables[key] = t
	return t
}

// order returns epoch's shuffle of the dataset under seed.
func (p *Prepared) order(seed int64, epoch int) []int {
	key := [2]int64{seed, int64(epoch)}
	o, ok := p.orders[key]
	if !ok {
		o = dltrain.Shuffle(len(p.paths), seed, epoch)
		p.orders[key] = o
	}
	return o
}
