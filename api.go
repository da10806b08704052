package repro

import (
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dltrain"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/hashring"
	"repro/internal/hvac"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Core cluster surface.
type (
	// Cluster is a running FT-Cache deployment (servers + shared PFS).
	Cluster = core.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = core.ClusterConfig
	// NodeID identifies a node.
	NodeID = core.NodeID
	// FailureMode selects how a node is taken down by fault injection.
	FailureMode = core.FailureMode
	// Client is the fault-tolerant HVAC client.
	Client = hvac.Client
	// Router is the pluggable fault-tolerance policy.
	Router = hvac.Router
	// IngestConfig enables the batched async put pipeline on clients
	// (ClusterConfig.Ingest / ClientConfig.Ingest).
	IngestConfig = hvac.IngestConfig
	// Dataset describes a training-file population.
	Dataset = workload.Dataset
	// Ring is the consistent-hash ring with virtual nodes.
	Ring = hashring.Ring
	// RingConfig configures a Ring.
	RingConfig = hashring.Config
	// StrategyKind names a fault-tolerance strategy.
	StrategyKind = ftcache.StrategyKind
	// Trainer runs data-parallel training against a live Cluster.
	Trainer = dltrain.Trainer
	// TrainConfig configures a Trainer.
	TrainConfig = dltrain.Config
	// TrainReport is a training run's outcome.
	TrainReport = dltrain.Report
	// TrainFailure schedules a node failure during a live training run;
	// the simulator reads the same type.
	TrainFailure = failure.Event
	// Heartbeat is the proactive failure prober (extension to the
	// paper's passive timeout detection).
	Heartbeat = cluster.Heartbeat
	// HeartbeatConfig tunes the prober.
	HeartbeatConfig = cluster.HeartbeatConfig
	// Checkpointer persists model state across failures (two-tier:
	// node-local NVMe + PFS).
	Checkpointer = checkpoint.Checkpointer
	// CheckpointMeta identifies one checkpoint.
	CheckpointMeta = checkpoint.Meta
	// CheckpointConfig tunes retention and namespacing.
	CheckpointConfig = checkpoint.Config
)

// Fault-tolerance strategies (paper §IV / §V-A).
const (
	// StrategyNoFT is the original HVAC baseline: any node failure
	// terminates the job.
	StrategyNoFT = ftcache.KindNoFT
	// StrategyPFS is FT w/ PFS: redirect lost files to the parallel file
	// system for the rest of the job.
	StrategyPFS = ftcache.KindPFS
	// StrategyNVMe is FT w/ NVMe: hash-ring elastic recaching — the
	// paper's contribution.
	StrategyNVMe = ftcache.KindNVMe
)

// Failure modes for fault injection.
const (
	// FailUnresponsive leaves connections up but the server silent.
	FailUnresponsive = core.FailUnresponsive
	// FailKill closes the server and its connections outright.
	FailKill = core.FailKill
)

// NewCluster boots cfg.Nodes HVAC servers over a fresh shared PFS.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewCluster(cfg) }

// NewRing creates a consistent-hash ring.
func NewRing(cfg RingConfig, nodes []NodeID) *Ring {
	return hashring.NewWithNodes(cfg, nodes)
}

// NewTrainer creates a data-parallel trainer over a live cluster.
func NewTrainer(cfg TrainConfig) (*Trainer, error) { return dltrain.New(cfg) }

// TrainDataset adapts a Dataset for TrainConfig.
func TrainDataset(ds Dataset) dltrain.DatasetAdapter { return dltrain.FromWorkload(ds) }

// CosmoFlowTrain is the paper's training split geometry (524,288 files,
// ~1.3 TB). Use Dataset.Scaled and Dataset.WithFileBytes for local runs.
func CosmoFlowTrain() Dataset { return workload.CosmoFlowTrain() }

// CosmoFlowValidation is the paper's validation split geometry.
func CosmoFlowValidation() Dataset { return workload.CosmoFlowValidation() }

// NewHeartbeat creates a proactive failure prober feeding the client's
// detector; the client itself serves as the Pinger:
//
//	hb := repro.NewHeartbeat(client, repro.HeartbeatConfig{})
//	hb.Start()
//	defer hb.Stop()
func NewHeartbeat(client *Client, cfg HeartbeatConfig) *Heartbeat {
	return cluster.NewHeartbeat(client.Tracker(), client, cfg)
}

// NewCheckpointer creates a two-tier checkpointer: fast local writes
// drained asynchronously to the cluster's PFS. localCapacity bounds the
// local tier (0 = unbounded).
func NewCheckpointer(c *Cluster, localCapacity int64, cfg CheckpointConfig) (*Checkpointer, error) {
	return checkpoint.New(storage.NewNVMe(localCapacity), c.PFS(), cfg)
}
