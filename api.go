package repro

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dltrain"
	"repro/internal/failure"
	"repro/internal/ftcache"
	"repro/internal/hvac"
	"repro/internal/workload"
)

// Core cluster surface: the names README and examples/quickstart use,
// and the types of the values they return.
type (
	// Cluster is a running FT-Cache deployment (servers + shared PFS).
	Cluster = core.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = core.ClusterConfig
	// NodeID identifies a node.
	NodeID = core.NodeID
	// Client is the fault-tolerant HVAC client.
	Client = hvac.Client
	// Dataset describes a training-file population.
	Dataset = workload.Dataset
	// Trainer runs data-parallel training against a live Cluster.
	Trainer = dltrain.Trainer
	// TrainConfig configures a Trainer.
	TrainConfig = dltrain.Config
	// FailureEvent is one entry of a Trainer's failure plan.
	FailureEvent = failure.Event
	// Heartbeat is the proactive failure prober (extension to the
	// paper's passive timeout detection).
	Heartbeat = cluster.Heartbeat
	// HeartbeatConfig tunes the prober.
	HeartbeatConfig = cluster.HeartbeatConfig
)

// StrategyNVMe is FT w/ NVMe: hash-ring elastic recaching — the paper's
// contribution (§IV).
const StrategyNVMe = ftcache.KindNVMe

// NewCluster boots cfg.Nodes HVAC servers over a fresh shared PFS.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewCluster(cfg) }

// NewTrainer creates a data-parallel trainer over a live cluster.
func NewTrainer(cfg TrainConfig) (*Trainer, error) { return dltrain.New(cfg) }

// CosmoFlowTrain is the paper's training split geometry (524,288 files,
// ~1.3 TB). Use Dataset.Scaled and Dataset.WithFileBytes for local runs.
func CosmoFlowTrain() Dataset { return workload.CosmoFlowTrain() }

// NewHeartbeat creates a proactive failure prober feeding the client's
// detector; the client itself serves as the Pinger:
//
//	hb := repro.NewHeartbeat(client, repro.HeartbeatConfig{})
//	hb.Start()
//	defer hb.Stop()
func NewHeartbeat(client *Client, cfg HeartbeatConfig) *Heartbeat {
	return cluster.NewHeartbeat(client.Tracker(), client, cfg)
}
