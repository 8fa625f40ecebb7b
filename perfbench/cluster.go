package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro"
	"repro/hsqclient"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/oracle"
)

// The cluster layer has no workload of its own: no cluster run was steady
// enough to gate a change on. The query workload's traced pass replays its
// first seeded steps through an in-process cluster.Harness of 3 nodes with
// 2 replicas and in-memory DBs. One hsqclient connection enters at a node
// that stores none of the streams, so every frame is routed to the owner
// and fanned out to the replica. After each step a reader at that node
// answers quick quantiles over the union of the streams as hsqd's
// coordinator does: one Cluster.CachedSummary per stream from its first
// member, merged with core.MergeShardSummaries.
const (
	clusterNodes    = 3
	clusterReplicas = 2
	clusterStreams  = 4
	clusterSteps    = 16 // round-robin over the streams
	clusterReads    = 10 // scatter-gather reads after each step
	clusterChecked  = 20 // checked reads at the quiescent point
)

// clusterReplay sends clusterSteps steps, each from step(), through the
// cluster, records the cluster.* layer metrics, and keeps the answers of
// the reads at the quiescent point for the oracle check. It returns the
// oracle for those answers: every value sent.
func (p *pass) clusterReplay(step func() []int64) (*oracle.Oracle, error) {
	h, err := cluster.NewHarness(cluster.HarnessConfig{
		Nodes: clusterNodes, Replicas: clusterReplicas, Options: hsq.Options{Epsilon: eps},
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()
	entry := h.Nodes[0]
	var streams []string
	for i := 0; len(streams) < clusterStreams; i++ {
		if name := fmt.Sprintf("c.s%02d", i); !h.Ring.IsMember(entry.Node.ID, name) {
			streams = append(streams, name)
		}
	}
	client, err := hsqclient.Dial(entry.Node.Addr)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	relays := func() (pending, dropped uint64) {
		for _, n := range h.Nodes {
			for _, s := range n.Cluster.Stats() {
				pending += s.Pending
				dropped += s.Dropped
			}
		}
		return pending, dropped
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	read := func(req int64) (v, n, bound int64, phi float64, err error) {
		phi = 0.01 + 0.98*rng.Float64()
		sums := make([]*core.ShardSummary, len(streams))
		for i, name := range streams {
			id := p.tr.begin("cluster.Cluster.CachedSummary", 0, req)
			sums[i], err = entry.Cluster.CachedSummary(context.Background(), h.Ring.Members(name)[0], name)
			p.tr.end(id, 1)
			if err != nil {
				return 0, 0, 0, phi, err
			}
		}
		merged, total, err := core.MergeShardSummaries(sums)
		if err != nil {
			return 0, 0, 0, phi, err
		}
		if total == 0 {
			return 0, 0, 0, phi, errors.New("no data in the cluster")
		}
		v, err = merged.QuickQuery(max(1, int64(math.Ceil(phi*float64(total)))))
		return v, total, merged.QuickRankError(), phi, err
	}

	var (
		sent       [][]int64
		pendingMax uint64
		req        = int64(3_000_000)
	)
	cache0 := entry.Cluster.SummaryCacheStats()
	for k := 0; k < clusterSteps; k++ {
		vs := step()
		cs := client.Stream(streams[k%clusterStreams])
		for _, v := range vs {
			if err := cs.Observe(v); err != nil {
				return nil, err
			}
		}
		// The relay backlog peaks while the step's frames are in flight,
		// before EndStep + Flush wait for them.
		pending, _ := relays()
		pendingMax = max(pendingMax, pending)
		if err := cs.EndStep(); err != nil {
			return nil, err
		}
		if err := cs.Flush(); err != nil {
			return nil, err
		}
		sent = append(sent, vs)
		for i := 0; i < clusterReads; i++ {
			req++
			if _, _, _, _, err := read(req); err != nil {
				return nil, err
			}
		}
	}
	cs := entry.Cluster.SummaryCacheStats()
	hits, misses := cs.Hits-cache0.Hits, cs.Misses-cache0.Misses
	_, dropped := relays()
	tot := totalsByName(p.tr.snapshot())
	p.layer["cluster.fetch_us"] = perCall(tot, "cluster.Cluster.CachedSummary", time.Microsecond)
	p.layer["cluster.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	p.layer["cluster.relay_pending_max"] = float64(pendingMax)
	p.layer["cluster.relay_dropped"] = float64(dropped)

	// Quiescent point: every step is acknowledged, so applied on every
	// member. The entry node may still cache a summary fetched while a
	// step was in flight, for up to one TTL; the checked reads wait that
	// out.
	time.Sleep(cluster.DefaultSummaryTTL + 100*time.Millisecond)
	for i := 0; i < clusterChecked; i++ {
		req++
		v, n, bound, phi, err := read(req)
		if err != nil {
			return nil, err
		}
		p.answers = append(p.answers, answer{kind: "cluster", key: "cluster", phi: phi, value: v, n: n, bound: bound})
	}
	return oracleOf(sent...), nil
}
