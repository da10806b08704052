// Elastic training over TCP: runs the FT-Cache fleet on real loopback
// sockets (the same transport cmd/ftcserver uses), trains with repeated
// node failures, and shows the job surviving every one of them via
// hash-ring recaching and elastic rollback.
//
//	go run ./examples/elastic
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro"
	"repro/internal/rpc"
)

func main() {
	cluster, err := repro.NewCluster(repro.ClusterConfig{
		Nodes:        8,
		Strategy:     repro.StrategyNVMe,
		RPCTimeout:   150 * time.Millisecond,
		TimeoutLimit: 2,
		// Real TCP on loopback instead of the in-process pipe network:
		// node names resolve through a local registry below.
		Network: newLoopback(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	ds := repro.CosmoFlowTrain().Scaled(2048).WithFileBytes(16384)
	if _, err := cluster.Stage(ds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-node cluster over TCP loopback, %d files × %d KiB\n\n",
		ds.NumFiles, ds.FileBytes/1024)

	trainer, err := repro.NewTrainer(repro.TrainConfig{
		Cluster:   cluster,
		Dataset:   repro.TrainDataset(ds),
		Workers:   8,
		Epochs:    5,
		BatchSize: 4,
		Seed:      7,
		Failures: []repro.TrainFailure{
			{Epoch: 1, Frac: 0.25},
			{Epoch: 2, Frac: 0.1, Kill: true},
			{Epoch: 3, Frac: 0.3},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()

	rep, err := trainer.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if rep.Aborted {
		log.Fatalf("job aborted: %v", rep.AbortErr)
	}
	for _, e := range rep.Epochs {
		note := ""
		if e.Restarts > 0 {
			note = fmt.Sprintf("  <- %d failure(s), elastic rollback", e.Restarts)
		}
		fmt.Printf("epoch %d: %-10v workers=%d%s\n",
			e.Epoch, e.Duration.Round(time.Millisecond), e.Workers, note)
	}
	fmt.Printf("\nsurvived 3 node failures; finished on %d of 8 workers\n", rep.FinalWorkers)
	st := rep.ClientStats
	fmt.Printf("reads: nvme=%d server-pfs=%d timeouts=%d failovers=%d\n",
		st.ServedNVMe, st.ServedPFS, st.Timeouts, st.FailoverReads)
}

// loopback implements rpc.Network over real TCP: every logical node name
// binds an ephemeral 127.0.0.1 port at Listen time and dials resolve
// through the registry — a miniature service discovery, standing in for
// the hostfile a real SLURM launch distributes.
type loopback struct {
	mu    sync.Mutex
	addrs map[string]string
}

func newLoopback() *loopback { return &loopback{addrs: make(map[string]string)} }

// Listen implements rpc.Network.
func (l *loopback) Listen(name string) (net.Listener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.addrs[name] = lis.Addr().String()
	l.mu.Unlock()
	return lis, nil
}

// Dial implements rpc.Network.
func (l *loopback) Dial(name string) (net.Conn, error) {
	l.mu.Lock()
	addr, ok := l.addrs[name]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("loopback: unknown node %q", name)
	}
	return net.Dial("tcp", addr)
}

var _ rpc.Network = (*loopback)(nil)
