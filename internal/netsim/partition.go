package netsim

import (
	"fmt"

	"greenenvy/internal/sim"
)

// This file partitions the fat-tree for conservative-synchronization
// parallel simulation (sim.ShardGroup). The cut runs along the pod/core
// uplinks: every host, edge and aggregation switch of pod p lives on shard
// p, and core switch c lives on shard c mod k. Only agg↔core links can
// cross the cut, and every link's propagation delay becomes the conduit's
// lookahead, so the partition needs no extra synchronization machinery
// beyond what the topology already provides. The dumbbell never uses any
// of this — it degenerates to a single shard and keeps its monolithic
// engine untouched.

// FatTreePartition is the fixed pod/core-based shard assignment for a
// k-ary fat-tree. The assignment is part of the determinism contract: it
// depends only on the topology, never on worker count, so per-shard event
// streams are identical no matter how many workers execute them.
type FatTreePartition struct {
	// K is the tree arity; there is one shard per pod.
	K int
}

// Shards returns the number of partitions (one per pod).
func (p FatTreePartition) Shards() int { return p.K }

// PodShard returns the shard owning pod's hosts, edges and aggs.
func (p FatTreePartition) PodShard(pod int) int { return pod }

// CoreShard returns the shard owning core switch c. Cores are dealt
// round-robin over the pod shards so core load spreads evenly.
func (p FatTreePartition) CoreShard(c int) int { return c % p.K }

// fatTreeLayout tells buildFatTree where each element lives: on the one
// monolithic engine, or spread over a shard group per FatTreePartition.
type fatTreeLayout struct {
	engine *sim.Engine     // monolithic build
	group  *sim.ShardGroup // sharded build
	part   FatTreePartition
}

// pod returns the engine hosting pod p's switches, hosts and links.
func (l fatTreeLayout) pod(p int) *sim.Engine {
	if l.group == nil {
		return l.engine
	}
	return l.group.Engine(l.part.PodShard(p))
}

// core returns the engine hosting core switch c and its downlinks.
func (l fatTreeLayout) core(c int) *sim.Engine {
	if l.group == nil {
		return l.engine
	}
	return l.group.Engine(l.part.CoreShard(c))
}

// bindPodToCore diverts an agg(p)→core(c) uplink through a conduit when
// the two ends live on different shards.
func (l fatTreeLayout) bindPodToCore(lnk *Link, p, c int, dst Handler) {
	if l.group == nil {
		return
	}
	l.bindAcross(lnk, l.part.PodShard(p), l.part.CoreShard(c), dst)
}

// bindCoreToPod diverts a core(c)→agg(p) downlink likewise.
func (l fatTreeLayout) bindCoreToPod(lnk *Link, c, p int, dst Handler) {
	if l.group == nil {
		return
	}
	l.bindAcross(lnk, l.part.CoreShard(c), l.part.PodShard(p), dst)
}

// bindAcross is the partition cut: when a link's endpoints land on
// different shards, its propagation stage is diverted through a conduit
// whose lookahead is exactly the link delay. Same-shard links keep the
// direct wire.
func (l fatTreeLayout) bindAcross(lnk *Link, srcShard, dstShard int, dst Handler) {
	if srcShard == dstShard {
		return
	}
	lnk.SetRemote(sim.NewConduit(l.group, srcShard, dstShard, lnk.Delay, dst.HandlePacket))
}

// NewFatTreeSharded wires the same topology as NewFatTree across group's
// partition engines, cut at the pod/core uplinks. The group must hold
// exactly k shards (one per pod; cores are spread over them), and the link
// delay must be positive — it is the lookahead conservative
// synchronization leans on. Switch/link creation order, and therefore ECMP
// salting and routing, is identical to the monolithic build: the same seed
// spreads the same flows onto the same paths.
func NewFatTreeSharded(group *sim.ShardGroup, cfg FatTreeConfig) *FatTree {
	part := FatTreePartition{K: cfg.K}
	if group.Shards() != part.Shards() {
		panic(fmt.Sprintf("netsim: fat-tree k=%d wants %d shards, group has %d", cfg.K, part.Shards(), group.Shards()))
	}
	if cfg.LinkDelay <= 0 {
		panic("netsim: sharded fat-tree needs a positive link delay for lookahead")
	}
	return buildFatTree(cfg, fatTreeLayout{group: group, part: part})
}

// ShardOfHost returns the shard owning host h (its pod), or 0 for a
// monolithic tree.
func (ft *FatTree) ShardOfHost(h NodeID) int {
	if ft.Group == nil {
		return 0
	}
	return ft.part.PodShard(ft.Pod(h))
}

// EngineOf returns the engine that drives host h.
func (ft *FatTree) EngineOf(h NodeID) *sim.Engine {
	if ft.Group == nil {
		return ft.Engine
	}
	return ft.Group.Engine(ft.ShardOfHost(h))
}

// Partition exposes the shard assignment (zero-valued for a monolithic
// tree).
func (ft *FatTree) Partition() FatTreePartition { return ft.part }
