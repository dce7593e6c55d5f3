package experiments

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"monarch/internal/core"
	"monarch/internal/obs"
	"monarch/internal/obs/cluster"
	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/report"
	"monarch/internal/rng"
	"monarch/internal/storage"
	"monarch/internal/trace"
	"monarch/internal/trace/analyze"
)

// This file runs the peer-cache network for real: N in-process nodes,
// each with its own tier-0 store served over loopback TCP by a
// peernet.Server, a consistent-hash ownership ring, and a shared
// read-only PFS. Unlike the simulator-based distributed experiments,
// everything here moves actual bytes through actual sockets — the run
// measures how many PFS data operations the peer network absorbs under
// reshuffled data-parallel sharding, and how the cluster behaves under
// churn: killed serving sockets, gossip-driven liveness views, node
// rejoin, and hedged reads against an injected slow peer.

// PeerRunConfig parameterises one loopback peer-cache run.
type PeerRunConfig struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// Files and FileSize shape the shared dataset: Files shards of
	// FileSize bytes each, named data/shard-NNNN.rec.
	Files    int
	FileSize int
	// Epochs is how many passes over the dataset each node makes.
	Epochs int
	// Mode assigns shards to nodes per epoch (ShardReshuffled is the
	// scenario peer caching exists for).
	Mode ShardingMode
	// UsePeers wires the peer tier in; false runs the no-peer baseline
	// with an otherwise identical hierarchy.
	UsePeers bool
	// Replicas is the replica-set width R on the ownership ring
	// (default 1: primary only). With R >= 2 a node caches every file
	// it is one of the R owners of, so a dead primary's shards stay
	// peer-servable from the next replica.
	Replicas int
	// SSDQuota bounds each node's tier-0 store (0 = unlimited).
	SSDQuota int64
	// Seed drives the per-epoch shard permutations.
	Seed uint64
	// Health tunes each node's tier breaker (zero value = defaults).
	Health core.HealthConfig
	// Membership enables gossip liveness: each node runs a heartbeat
	// loop over its peer clients, views ride PING frames, and the tier
	// deprioritises Suspect and skips Dead replicas. A peer marked
	// Dead feeds the node's tier breaker: demotion pressure when R==1
	// (no replica covers the loss), a forced trip when no peer is
	// live at all.
	Membership bool
	// HeartbeatEvery, SuspectAfter and DeadAfter tune the gossip
	// timing (defaults 25ms / 100ms / 300ms — loopback scale).
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	DeadAfter      time.Duration
	// KillAfterEpoch, when >= 1, closes KillNode's peer server once
	// that many epochs have completed: sibling reads of its files fail
	// over to the next replica (R >= 2) or to the PFS (R == 1). The
	// killed node keeps training — only its serving socket dies. Zero
	// disables the fault.
	KillNode       int
	KillAfterEpoch int
	// RejoinAfterEpoch, when >= 1, restarts the killed node's server
	// on its original address once that many epochs have completed;
	// the gossip view resurrects it and ownership routing resumes.
	RejoinAfterEpoch int
	// SlowNode / SlowDelay inject tail latency: every peer-served
	// ReadAt answered by SlowNode's server stalls SlowDelay first
	// (0 disables). Heartbeats are unaffected — the node is slow, not
	// dead — which is exactly the case hedged reads exist for.
	SlowNode  int
	SlowDelay time.Duration
	// Hedge tunes hedged reads on every node's tier.
	Hedge peernet.HedgeConfig
	// TracePath, when non-empty, captures node 0's access trace; the
	// trailer records node 0's measured PFS data ops for the analyzer
	// cross-check.
	TracePath string
	// TraceDir, when non-empty, captures EVERY node's access trace as
	// TraceDir/nodeN.bin — the input cross-node correlation needs: a
	// peer read's client span lands in the reader's trace, the matching
	// serve span in the owner's, stitched by the shared request ID.
	// Overrides TracePath.
	TraceDir string
}

// PeerRunResult summarises one loopback run.
type PeerRunResult struct {
	// PFSOps is the total data-op count against the shared PFS;
	// NodePFSOps splits it per node.
	PFSOps     int64
	NodePFSOps []int64
	// Stats are each node's final middleware counters.
	Stats []core.Stats
	// PeerTierStates is each node's peer-tier breaker state at the end
	// of the run (all TierHealthy when UsePeers is false).
	PeerTierStates []core.TierState
	// PeerStageErrors sums monarch_errors_total{stage="peer"} across
	// nodes — peer transport/protocol failures, NOT clean misses.
	PeerStageErrors int64
	// Hedges / HedgeWins aggregate the tiers' hedge counters: requests
	// raced against a slow primary, and races the backup won.
	Hedges    int64
	HedgeWins int64
	// KillConvergence is how long after the kill every surviving
	// node's view marked the victim Dead; RejoinConvergence how long
	// after the restart every view marked it Alive again. Zero when
	// not measured, -1 when a view failed to converge in time.
	KillConvergence   time.Duration
	RejoinConvergence time.Duration
	// FinalViews is each node's final membership snapshot (nil
	// without Membership).
	FinalViews []map[string]peernet.PeerState
	// Fleet is the cluster aggregator's merged view, polled once after
	// the last epoch through node 0's peer clients plus node 0's own
	// registry — the same path /metrics/cluster serves. Nil when
	// UsePeers is false.
	Fleet *cluster.Snapshot
}

// PeerHits sums peer-cache hits across nodes.
func (r *PeerRunResult) PeerHits() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.PeerHits
	}
	return n
}

// PeerHedges sums hedged peer hits across nodes.
func (r *PeerRunResult) PeerHedges() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.PeerHedges
	}
	return n
}

// Fallbacks sums PFS fallbacks across nodes.
func (r *PeerRunResult) Fallbacks() int64 {
	var n int64
	for _, s := range r.Stats {
		n += s.Fallbacks
	}
	return n
}

// peerBarrier is a cyclic barrier for real goroutines (the simulator's
// WaitGroup does not apply here): all n participants block until the
// last arrives, which first runs onRelease with the 0-based round just
// completed.
type peerBarrier struct {
	mu        sync.Mutex
	cond      *sync.Cond
	n         int
	arrived   int
	round     int
	onRelease func(round int)
}

func newPeerBarrier(n int, onRelease func(int)) *peerBarrier {
	b := &peerBarrier{n: n, onRelease: onRelease}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *peerBarrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.arrived++
	if b.arrived == b.n {
		if b.onRelease != nil {
			b.onRelease(round)
		}
		b.arrived = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

// peerShardContent is the deterministic content of shard i.
func peerShardContent(i, size int) []byte {
	return bytes.Repeat([]byte{byte(i%251 + 1)}, size)
}

// slowReads delays every ReadAt against the wrapped backend — a peer
// whose serving path is congested but whose process is healthy.
type slowReads struct {
	storage.Backend
	delay time.Duration
}

func (s slowReads) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-t.C:
	}
	return s.Backend.ReadAt(ctx, name, p, off)
}

// waitPeerState polls every view (skipping index skip and nil entries)
// until all agree peer is in state want; it returns how long that took,
// or -1 on timeout.
func waitPeerState(mems []*peernet.Membership, skip int, peer string, want peernet.PeerState, timeout time.Duration) time.Duration {
	start := time.Now()
	for {
		agreed := true
		for i, m := range mems {
			if i == skip || m == nil {
				continue
			}
			if m.State(peer) != want {
				agreed = false
				break
			}
		}
		if agreed {
			return time.Since(start)
		}
		if time.Since(start) > timeout {
			return -1
		}
		time.Sleep(time.Millisecond)
	}
}

// RunPeerLoopback executes one peer-cache run over real loopback TCP.
func RunPeerLoopback(cfg PeerRunConfig) (*PeerRunResult, error) {
	if cfg.Nodes < 1 || cfg.Files < 1 || cfg.FileSize < 1 || cfg.Epochs < 1 {
		return nil, fmt.Errorf("experiments: bad peer config %+v", cfg)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Nodes {
		return nil, fmt.Errorf("experiments: %d replicas exceed %d nodes", cfg.Replicas, cfg.Nodes)
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 25 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 100 * time.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 300 * time.Millisecond
	}
	ctx := context.Background()

	// Shared dataset.
	pfsRaw := storage.NewMemFS("lustre", 0)
	names := make([]string, cfg.Files)
	for i := range names {
		names[i] = fmt.Sprintf("data/shard-%04d.rec", i)
		if err := pfsRaw.WriteFile(ctx, names[i], peerShardContent(i, cfg.FileSize)); err != nil {
			return nil, err
		}
	}
	pfsRaw.SetReadOnly(true)

	nodeIDs := make([]string, cfg.Nodes)
	for i := range nodeIDs {
		nodeIDs[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := peernet.NewRing(nodeIDs, 0)
	if err != nil {
		return nil, err
	}

	// Membership views come first: the servers gossip through them and
	// the tiers route by them. monMu orders the views' OnChange
	// callbacks (fired from heartbeat and server goroutines) against
	// the main goroutine still wiring monarchs up.
	var monMu sync.Mutex
	mems := make([]*peernet.Membership, cfg.Nodes)
	monarchs := make([]*core.Monarch, cfg.Nodes)
	gossip := cfg.UsePeers && cfg.Membership
	if gossip {
		for i := range mems {
			i := i
			others := make([]string, 0, cfg.Nodes-1)
			for j, id := range nodeIDs {
				if j != i {
					others = append(others, id)
				}
			}
			view, err := peernet.NewMembership(peernet.MembershipConfig{
				Self:         nodeIDs[i],
				Peers:        others,
				SuspectAfter: cfg.SuspectAfter,
				DeadAfter:    cfg.DeadAfter,
				OnChange: func(peer string, from, to peernet.PeerState) {
					if to != peernet.PeerDead {
						return
					}
					// A dead peer costs nothing while replicas cover its
					// shards; feed the breaker only when they do not.
					monMu.Lock()
					mon, view := monarchs[i], mems[i]
					monMu.Unlock()
					if mon == nil {
						return
					}
					err := fmt.Errorf("experiments: gossip marked peer %s dead", peer)
					switch {
					case view.LiveCount() == 0:
						mon.ForceTierDown(1, err)
					case cfg.Replicas == 1:
						mon.ReportTierError(1, err)
					}
				},
			})
			if err != nil {
				return nil, err
			}
			monMu.Lock()
			mems[i] = view
			monMu.Unlock()
		}
	}

	// The serving sockets come up before the monarchs exist, so the
	// observability hooks late-bind: each server's STATS answer and
	// serve-span sink resolve node i's instance per request (nil until
	// assembly finishes, reported as an error rather than a panic).
	nodeStats := func(i int) func() (peernet.NodeStats, error) {
		return func() (peernet.NodeStats, error) {
			monMu.Lock()
			m, view := monarchs[i], mems[i]
			monMu.Unlock()
			if m == nil {
				return peernet.NodeStats{}, fmt.Errorf("node %s still assembling", nodeIDs[i])
			}
			ns := peernet.NodeStats{Node: nodeIDs[i], Metrics: m.Registry().Snapshot()}
			if view != nil {
				for peer, st := range view.Snapshot() {
					ns.Gossip = append(ns.Gossip, peernet.GossipEntry{Node: peer, State: st.String()})
				}
				sort.Slice(ns.Gossip, func(a, b int) bool { return ns.Gossip[a].Node < ns.Gossip[b].Node })
			}
			if jobs := m.Stats().Jobs; len(jobs) > 0 {
				ns.Jobs = make(map[string]peernet.JobCounters, len(jobs))
				for job, js := range jobs {
					ns.Jobs[job] = peernet.JobCounters{
						ReadsServed: js.ReadsServed, BytesServed: js.BytesServed,
						Hits: js.Hits, Evictions: js.Evictions,
					}
				}
			}
			return ns, nil
		}
	}
	nodeTrace := func(i int) obs.TraceHook {
		return func(s obs.Span) {
			monMu.Lock()
			m := monarchs[i]
			monMu.Unlock()
			if m == nil {
				return
			}
			if tr := m.Tracer(); tr != nil {
				tr.HookSpan(s)
			}
		}
	}

	// Per-node stores and, with peers on, one serving socket each. The
	// servers must all be listening before any client dials. The
	// servers slice is mutated by kill/rejoin, so cleanup walks it at
	// exit instead of capturing the originals.
	ssds := make([]*storage.MemFS, cfg.Nodes)
	pfss := make([]*storage.Counting, cfg.Nodes)
	serveBackends := make([]storage.Backend, cfg.Nodes)
	servers := make([]*peernet.Server, cfg.Nodes)
	addrs := make([]string, cfg.Nodes)
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()
	for i := range ssds {
		ssds[i] = storage.NewMemFS("ssd-"+nodeIDs[i], cfg.SSDQuota)
		pfss[i] = storage.NewCounting(pfsRaw)
		serveBackends[i] = ssds[i]
		if cfg.SlowDelay > 0 && i == cfg.SlowNode {
			serveBackends[i] = slowReads{Backend: ssds[i], delay: cfg.SlowDelay}
		}
		if cfg.UsePeers {
			srv, err := peernet.NewServer(peernet.ServerConfig{
				Backend:    serveBackends[i],
				Membership: mems[i],
				Stats:      nodeStats(i),
				Trace:      nodeTrace(i),
			})
			if err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			go srv.Serve(ln)
			servers[i] = srv
			addrs[i] = ln.Addr().String()
		}
	}

	tiers := make([]*peernet.Tier, cfg.Nodes)
	clientsOf := make([]map[string]*peernet.Client, cfg.Nodes)
	for i := range monarchs {
		levels := []storage.Backend{ssds[i], pfss[i]}
		mcfg := core.Config{
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Health:        cfg.Health,
		}
		if cfg.UsePeers {
			clients := make(map[string]*peernet.Client)
			for j, id := range nodeIDs {
				if j == i {
					continue
				}
				c, err := peernet.NewClient(peernet.ClientConfig{
					Name:    "peer:" + id,
					Dial:    peernet.TCPDialer(addrs[j], 2*time.Second),
					Timeout: 2 * time.Second,
					Retries: 1,
					Backoff: 5 * time.Millisecond,
				})
				if err != nil {
					return nil, err
				}
				clients[id] = c
			}
			clientsOf[i] = clients
			tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
				Name:       "peers",
				Self:       nodeIDs[i],
				Ring:       ring,
				Clients:    clients,
				Replicas:   cfg.Replicas,
				Membership: mems[i],
				Hedge:      cfg.Hedge,
			})
			if err != nil {
				return nil, err
			}
			tiers[i] = tier
			defer tier.Close()
			levels = []storage.Backend{ssds[i], tier, pfss[i]}
			self, replicas := nodeIDs[i], cfg.Replicas
			mcfg.Peer = core.PeerConfig{
				Tier: 1,
				Owns: func(name string) bool { return ring.OwnedBy(name, self, replicas) },
			}
		}
		mcfg.Levels = levels
		if i == 0 && cfg.TracePath != "" {
			mcfg.TracePath = cfg.TracePath
		}
		if cfg.TraceDir != "" {
			mcfg.TracePath = filepath.Join(cfg.TraceDir, fmt.Sprintf("node%d.bin", i))
		}
		m, err := core.New(mcfg)
		if err != nil {
			return nil, err
		}
		if err := m.Init(ctx); err != nil {
			m.Close()
			return nil, err
		}
		monMu.Lock()
		monarchs[i] = m
		monMu.Unlock()
	}

	// Gossip loops start only once every monarch exists, so OnChange
	// always finds a breaker to feed.
	if gossip {
		for i := range mems {
			hb, err := peernet.NewHeartbeater(mems[i], clientsOf[i], cfg.HeartbeatEvery)
			if err != nil {
				return nil, err
			}
			hb.Start()
			defer hb.Stop()
		}
	}

	res := &PeerRunResult{
		NodePFSOps:     make([]int64, cfg.Nodes),
		Stats:          make([]core.Stats, cfg.Nodes),
		PeerTierStates: make([]core.TierState, cfg.Nodes),
	}

	// Epoch loop: each node reads its shard slice in full, waits for
	// its placements to settle (so the next epoch sees warm owner
	// caches), then joins the barrier. The last arriver of the kill
	// epoch closes the victim's serving socket; of the rejoin epoch,
	// restarts it on the recorded address. Convergence of the gossip
	// views is measured from goroutines so the kill itself never
	// blocks the epoch cadence — the next epoch's reads race the
	// views, exactly like production churn.
	killEnabled := cfg.UsePeers && cfg.KillAfterEpoch >= 1 &&
		cfg.KillNode >= 0 && cfg.KillNode < cfg.Nodes
	victim := ""
	if killEnabled {
		victim = nodeIDs[cfg.KillNode]
	}
	convKill := make(chan time.Duration, 1)
	convRejoin := make(chan time.Duration, 1)
	var killMeasured, killDrained, rejoinMeasured bool
	var rejoinErr error
	barrier := newPeerBarrier(cfg.Nodes, func(round int) {
		if !killEnabled {
			return
		}
		if round+1 == cfg.KillAfterEpoch && servers[cfg.KillNode] != nil {
			servers[cfg.KillNode].Close()
			servers[cfg.KillNode] = nil
			if gossip {
				killMeasured = true
				go func() {
					convKill <- waitPeerState(mems, cfg.KillNode, victim, peernet.PeerDead, 10*time.Second)
				}()
			}
		}
		if cfg.RejoinAfterEpoch >= 1 && round+1 == cfg.RejoinAfterEpoch && servers[cfg.KillNode] == nil {
			if killMeasured && !killDrained {
				// The dead view must have settled before the node returns,
				// or the two convergence measurements would overlap.
				res.KillConvergence = <-convKill
				killDrained = true
			}
			srv, err := peernet.NewServer(peernet.ServerConfig{
				Backend:    serveBackends[cfg.KillNode],
				Membership: mems[cfg.KillNode],
				Stats:      nodeStats(cfg.KillNode),
				Trace:      nodeTrace(cfg.KillNode),
			})
			if err != nil {
				rejoinErr = err
				return
			}
			ln, err := net.Listen("tcp", addrs[cfg.KillNode])
			if err != nil {
				rejoinErr = err
				return
			}
			go srv.Serve(ln)
			servers[cfg.KillNode] = srv
			if gossip {
				rejoinMeasured = true
				go func() {
					convRejoin <- waitPeerState(mems, cfg.KillNode, victim, peernet.PeerAlive, 10*time.Second)
				}()
			}
		}
	})
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := monarchs[node]
			buf := make([]byte, cfg.FileSize)
			for epoch := 1; epoch <= cfg.Epochs; epoch++ {
				for _, shard := range peerShardOrder(cfg.Mode, node, cfg.Nodes, cfg.Files, epoch, cfg.Seed) {
					name := names[shard]
					n, err := m.ReadAt(ctx, name, buf, 0)
					if err != nil {
						errs[node] = fmt.Errorf("node %d epoch %d %s: %w", node, epoch, name, err)
						return
					}
					if n != cfg.FileSize || buf[0] != peerShardContent(shard, 1)[0] {
						errs[node] = fmt.Errorf("node %d epoch %d %s: bad content (n=%d)", node, epoch, name, n)
						return
					}
				}
				if err := waitMonarchIdle(m, 10*time.Second); err != nil {
					errs[node] = fmt.Errorf("node %d epoch %d: %w", node, epoch, err)
					return
				}
				if node == 0 || cfg.TraceDir != "" {
					m.MarkEpoch(epoch)
				}
				barrier.await()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if rejoinErr != nil {
		return nil, rejoinErr
	}
	if killMeasured && !killDrained {
		res.KillConvergence = <-convKill
	}
	if rejoinMeasured {
		res.RejoinConvergence = <-convRejoin
	}

	// Fleet aggregation, while every server is still up: node 0 polls
	// its siblings' STATS frames through the same pooled clients its
	// peer tier reads with, and contributes its own registry locally —
	// exactly what /metrics/cluster serves on a production node.
	if cfg.UsePeers {
		var sources []cluster.Source
		for j := 1; j < cfg.Nodes; j++ {
			sources = append(sources, cluster.Source{Node: nodeIDs[j], Client: clientsOf[0][nodeIDs[j]]})
		}
		agg := cluster.New(cluster.Config{Self: nodeStats(0), Sources: sources})
		snap, err := agg.Poll(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet stats poll: %w", err)
		}
		res.Fleet = &snap
	}

	for i, m := range monarchs {
		res.Stats[i] = m.Stats()
		res.NodePFSOps[i] = pfss[i].Counts().DataOps()
		res.PFSOps += res.NodePFSOps[i]
		if cfg.UsePeers {
			res.PeerTierStates[i] = m.TierState(1)
		}
		if tiers[i] != nil {
			res.Hedges += tiers[i].Hedges()
			res.HedgeWins += tiers[i].HedgeWins()
		}
		if mems[i] != nil {
			if res.FinalViews == nil {
				res.FinalViews = make([]map[string]peernet.PeerState, cfg.Nodes)
			}
			res.FinalViews[i] = mems[i].Snapshot()
		}
		res.PeerStageErrors += int64(m.Registry().Vars()[`monarch_errors_total{stage="peer"}`])
		if tr := m.Tracer(); tr != nil {
			tr.AddSummary(map[string]int64{"pfs_data_ops": res.NodePFSOps[i]})
		}
		m.Close()
	}
	return res, nil
}

// peerShardOrder assigns shard indices to node for one epoch, mirroring
// the simulator experiments' selector semantics.
func peerShardOrder(mode ShardingMode, node, nodes, total, epoch int, seed uint64) []int {
	var order []int
	switch mode {
	case ShardSticky:
		for j := node; j < total; j += nodes {
			order = append(order, j)
		}
	case ShardReshuffled:
		perm := rng.New(seed + uint64(epoch)*0x9e3779b9).Perm(total)
		for pos := node; pos < total; pos += nodes {
			order = append(order, perm[pos])
		}
	default: // ShardNone: every node reads everything.
		for j := 0; j < total; j++ {
			order = append(order, j)
		}
	}
	return order
}

// waitMonarchIdle blocks until background placements settle.
func waitMonarchIdle(m *core.Monarch, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !m.Idle() {
		if time.Now().After(deadline) {
			return fmt.Errorf("placements did not quiesce within %s", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// peerOwnedQuota sizes each node's tier-0 quota to its ownership share
// of the dataset with a little headroom — the peer-cache premise that
// the cluster's aggregate cache holds the dataset roughly R times.
func peerOwnedQuota(nodes, files, fileSize, replicas int) int64 {
	if replicas <= 0 {
		replicas = 1
	}
	ring, err := peernet.NewRing(nodeIDList(nodes), 0)
	if err != nil {
		return 0
	}
	counts := map[string]int64{}
	for i := 0; i < files; i++ {
		for _, owner := range ring.OwnersOf(fmt.Sprintf("data/shard-%04d.rec", i), replicas) {
			counts[owner]++
		}
	}
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return (max + 2) * int64(fileSize)
}

func nodeIDList(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	return ids
}

// fleetPFSOps totals the data operations (reads + writes) the shared
// PFS answered, from the fleet's merged monarch_backend_ops_total —
// every node's source level is a Counting wrapper over the same PFS,
// so the summed series is the cluster's whole PFS bill.
func fleetPFSOps(s obs.Snapshot) int64 {
	var sum float64
	for _, p := range s.Metrics {
		if p.Name != "monarch_backend_ops_total" || p.Value == nil {
			continue
		}
		if p.Labels["backend"] != "lustre" {
			continue
		}
		if op := p.Labels["op"]; op == "read" || op == "write" {
			sum += *p.Value
		}
	}
	return int64(sum)
}

// derivedPFSOps reconstructs the PFS data-op count from one node's
// monarch_ counters: source-served foreground reads plus one whole-file
// fetch per placement that could not reuse a full foreground read.
func derivedPFSOps(s core.Stats) int64 {
	return s.ReadsServed[len(s.ReadsServed)-1] + s.Placements - s.FullReadReuses
}

// AnalyzePeerTrace loads and analyzes a trace captured by
// RunPeerLoopback (node 0's view).
func AnalyzePeerTrace(path string) (*analyze.Analysis, error) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return analyze.Analyze(tr, analyze.Options{}), nil
}

// extPeernet measures the peer cache network over real loopback TCP at
// cluster scale: 16 nodes under reshuffled sharding with a 2-way
// replicated ring and gossip membership. Three adversarial scenarios
// ride the same harness: a mid-run kill and later rejoin of one node
// (the replica set must absorb it with zero PFS fallbacks), an
// injected slow peer (hedged reads must fire and be priced by the
// trace analyzer), and a 4-node rerun showing the savings grow with
// cluster size. PFS-op totals are cross-checked against each node's
// monarch_ counters and the trace analyzer's derivation.
func extPeernet() Experiment {
	return Experiment{
		ID:    "ext-peernet",
		Title: "Extension: peer cache network under churn (16 nodes, R=2)",
		Paper: "MONARCH leaves multi-node cache sharing as future work; " +
			"this extension serves tier-0 caches between nodes over a wire protocol " +
			"with R-way replication, gossip membership and hedged reads, " +
			"so reshuffled sharding stops flushing cache value every epoch " +
			"and a dead or slow node no longer stampedes the PFS.",
		Run: func(p Params) (*Outcome, error) {
			const (
				nodes    = 16
				files    = 96
				fileSize = 2048
				epochs   = 6
				replicas = 2
			)
			cfg := PeerRunConfig{
				Nodes: nodes, Files: files, FileSize: fileSize, Epochs: epochs,
				Mode:     ShardReshuffled,
				Replicas: replicas,
				SSDQuota: peerOwnedQuota(nodes, files, fileSize, replicas),
				Seed:     p.BaseSeed,
			}

			base := cfg
			base.UsePeers = false
			baseline, err := RunPeerLoopback(base)
			if err != nil {
				return nil, err
			}

			// Churn run: node 3's serving socket dies after epoch 2 and
			// returns after epoch 4, while everyone keeps training.
			churnTrace, err := tempTracePath()
			if err != nil {
				return nil, err
			}
			defer os.Remove(churnTrace)
			churnCfg := cfg
			churnCfg.UsePeers = true
			churnCfg.Membership = true
			churnCfg.KillNode = 3
			churnCfg.KillAfterEpoch = 2
			churnCfg.RejoinAfterEpoch = 4
			churnCfg.TracePath = churnTrace
			churn, err := RunPeerLoopback(churnCfg)
			if err != nil {
				return nil, err
			}

			// Hedge run: node 1 serves reads 15ms late; readers race the
			// second replica once the primary blows its threshold.
			hedgeTrace, err := tempTracePath()
			if err != nil {
				return nil, err
			}
			defer os.Remove(hedgeTrace)
			hedgeCfg := cfg
			hedgeCfg.UsePeers = true
			hedgeCfg.Membership = true
			hedgeCfg.SlowNode = 1
			hedgeCfg.SlowDelay = 15 * time.Millisecond
			hedgeCfg.Hedge = peernet.HedgeConfig{
				Enabled:    true,
				Quantile:   0.5,
				MinSamples: 8,
				Floor:      2 * time.Millisecond,
			}
			hedgeCfg.TracePath = hedgeTrace
			hedged, err := RunPeerLoopback(hedgeCfg)
			if err != nil {
				return nil, err
			}

			// Scale contrast: the identical workload at 16 and 4 nodes
			// with the same scarce per-node cache budget and no churn.
			// Holding the budget fixed is the point — the cluster's
			// aggregate cache grows with node count, so the peer
			// network's savings should too. (With budgets scaled to the
			// ownership share instead, a small cluster's aggregate cache
			// already holds the dataset and the scale effect vanishes.)
			scale := cfg
			scale.SSDQuota = int64(6 * fileSize)
			runScale := func(nodes int, peers bool) (*PeerRunResult, error) {
				c := scale
				c.Nodes = nodes
				c.UsePeers = peers
				return RunPeerLoopback(c)
			}
			scaleBase16, err := runScale(16, false)
			if err != nil {
				return nil, err
			}
			scalePeers16, err := runScale(16, true)
			if err != nil {
				return nil, err
			}
			scaleBase4, err := runScale(4, false)
			if err != nil {
				return nil, err
			}
			scalePeers4, err := runScale(4, true)
			if err != nil {
				return nil, err
			}

			o := &Outcome{}
			t := report.NewTable(
				fmt.Sprintf("peer cache network: %d shards × %d B, %d reshuffled epochs, R=%d (real TCP)",
					files, fileSize, epochs, replicas),
				"setup", "PFS ops", "peer hits", "peer misses", "hedges", "fallbacks")
			row := func(label string, r *PeerRunResult) {
				var misses int64
				for _, s := range r.Stats {
					misses += s.PeerMisses
				}
				t.Add(label, report.Count(r.PFSOps), report.Count(r.PeerHits()),
					report.Count(misses), report.Count(r.Hedges), report.Count(r.Fallbacks()))
			}
			row("16 nodes, no peers", baseline)
			row("16 nodes, kill+rejoin", churn)
			row("16 nodes, slow peer, hedged", hedged)
			row("16 nodes, small budget, no peers", scaleBase16)
			row("16 nodes, small budget, peers", scalePeers16)
			row("4 nodes, small budget, no peers", scaleBase4)
			row("4 nodes, small budget, peers", scalePeers4)
			// The fleet row comes from the aggregator itself — the churn
			// run's merged /metrics/cluster view, polled over STATS
			// frames — not from the per-node result structs the other
			// rows use. The checks below pin the two accountings to each
			// other.
			if f := churn.Fleet; f != nil {
				fleetHits, _ := f.Fleet.Int("monarch_peer_hits_total")
				fleetMisses, _ := f.Fleet.Int("monarch_peer_misses_total")
				fleetHedges, _ := f.Fleet.Int("monarch_peer_hedges_total")
				fleetFalls, _ := f.Fleet.Int("monarch_fallbacks_total")
				t.Add("16 nodes, kill+rejoin (fleet view)",
					report.Count(fleetPFSOps(f.Fleet)), report.Count(fleetHits),
					report.Count(fleetMisses), report.Count(fleetHedges), report.Count(fleetFalls))
			}
			o.Tables = append(o.Tables, t)

			o.check("peer network cuts PFS data ops under reshuffled sharding",
				churn.PFSOps < baseline.PFSOps,
				"%d vs %d ops (%.1f%% saved)", churn.PFSOps, baseline.PFSOps,
				100*reduction(float64(baseline.PFSOps), float64(churn.PFSOps)))
			o.check("sibling caches actually served reads",
				churn.PeerHits() > 0, "%d peer hits", churn.PeerHits())

			// The robustness property: a killed primary's shards are
			// served by the next replica — the middleware never falls
			// back to the PFS and never records a peer-stage error.
			o.check("kill+rejoin run completed with zero PFS fallbacks",
				churn.Fallbacks() == 0, "%d fallbacks", churn.Fallbacks())
			o.check("no peer-stage errors surfaced to the middleware",
				churn.PeerStageErrors == 0, "%d errors", churn.PeerStageErrors)
			o.check("gossip marked the killed node dead on every survivor",
				churn.KillConvergence >= 0 && churn.KillConvergence <= 10*time.Second,
				"converged in %v", churn.KillConvergence)
			o.check("gossip resurrected the node after rejoin",
				churn.RejoinConvergence >= 0 && churn.RejoinConvergence <= 10*time.Second,
				"converged in %v", churn.RejoinConvergence)

			var derived int64
			for _, s := range churn.Stats {
				derived += derivedPFSOps(s)
			}
			o.check("measured PFS ops match the monarch_ counters",
				derived == churn.PFSOps,
				"counters derive %d, PFS measured %d", derived, churn.PFSOps)

			o.check("cluster aggregator snapshotted every node",
				churn.Fleet != nil && len(churn.Fleet.Nodes) == nodes && len(churn.Fleet.Unreachable) == 0,
				"fleet view holds %d/%d nodes", len(churn.Fleet.Nodes), nodes)
			fleetHits, _ := churn.Fleet.Fleet.Int("monarch_peer_hits_total")
			o.check("fleet peer-hit series equals the sum of per-node counters",
				fleetHits == churn.PeerHits(),
				"fleet %d, per-node counters %d", fleetHits, churn.PeerHits())
			o.check("fleet PFS backend-op series equals the measured PFS data ops",
				fleetPFSOps(churn.Fleet.Fleet) == churn.PFSOps,
				"fleet %d, PFS measured %d", fleetPFSOps(churn.Fleet.Fleet), churn.PFSOps)

			a, err := AnalyzePeerTrace(churnTrace)
			if err != nil {
				return nil, err
			}
			o.check("trace analyzer agrees with node 0's measured PFS ops",
				a.Complete && a.PFSOps == a.RecordedPFSOps,
				"derived %d, recorded %d (complete=%v)", a.PFSOps, a.RecordedPFSOps, a.Complete)
			var traceFallbacks int64
			for _, e := range a.Epochs {
				traceFallbacks += e.Fallback
			}
			o.check("node 0's trace recorded zero fallback-class reads",
				traceFallbacks == 0, "%d fallback reads", traceFallbacks)

			o.check("hedges fired against the slow peer",
				hedged.Hedges > 0 && hedged.PeerHedges() > 0,
				"%d launched, %d served hedged, %d backup wins",
				hedged.Hedges, hedged.PeerHedges(), hedged.HedgeWins)
			ha, err := AnalyzePeerTrace(hedgeTrace)
			if err != nil {
				return nil, err
			}
			var traceHedged int64
			for _, e := range ha.Epochs {
				traceHedged += e.Hedged
			}
			o.check("node 0's hedge counter matches its trace spans",
				hedged.Stats[0].PeerHedges == traceHedged,
				"counter %d, trace %d", hedged.Stats[0].PeerHedges, traceHedged)

			sav16 := reduction(float64(scaleBase16.PFSOps), float64(scalePeers16.PFSOps))
			sav4 := reduction(float64(scaleBase4.PFSOps), float64(scalePeers4.PFSOps))
			o.check("savings grow with cluster size at a fixed per-node cache budget",
				sav16 >= sav4,
				"16 nodes save %.1f%%, 4 nodes save %.1f%%", 100*sav16, 100*sav4)
			return o, nil
		},
	}
}

func epochPeerHits(a *analyze.Analysis) int64 {
	var n int64
	for _, e := range a.Epochs {
		n += e.Peer
	}
	return n
}

// tempTracePath returns a fresh .bin path for a short-lived capture.
func tempTracePath() (string, error) {
	f, err := os.CreateTemp("", "monarch-peer-*.bin")
	if err != nil {
		return "", err
	}
	path := f.Name()
	f.Close()
	return path, nil
}
