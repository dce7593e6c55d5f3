package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"monarch/internal/core"
	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// workload is one benchmark input. Every field is part of its config,
// so a config is the same on both sides of a comparison.
type workload struct {
	name    string
	why     string
	shards  int     // dataset size in 2 MiB shards
	quota   float64 // tier-0 quota as a share of the dataset
	loaders int     // loader goroutines per node
	view    bool    // loaders read through ReadView instead of ReadAt
	ckpt    bool    // a writer issues write-back checkpoint bursts
	peer    bool    // two nodes joined by the peer network over loopback TCP
}

var workloads = []workload{
	{name: "epoch-fit", shards: 64, quota: 2, loaders: 2, view: true,
		why: "dataset is half the tier-0 quota: warm epochs are ReadView placed hits, so core's hot path and tier 0 do the work"},
	{name: "epoch-overflow", shards: 64, quota: 0.45, loaders: 2,
		why: "dataset is twice the tier-0 quota with no eviction: half of all preads go to the PFS, so routing and PFS pacing dominate"},
	{name: "checkpoint", shards: 32, quota: 2, loaders: 1, ckpt: true,
		why: "a ReadAt loader beside write-back checkpoint bursts: write path, journal, flusher and the burst gate next to reads"},
	{name: "peer-epoch", shards: 64, quota: 1, loaders: 1, peer: true,
		why: "two nodes over loopback TCP, each reading the whole dataset: non-owned reads go through peernet"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupReps   = 7 // set-ups per run; setup_s is their median
	minEpochs   = 3 // the cold epoch and at least two warm ones
	poolWorkers = 2 // placement workers per node
)

// node is one MONARCH instance and the tiers it owns.
type node struct {
	id     string
	m      *core.Monarch
	tier0  storage.Backend
	srv    *peernet.Server
	served chan struct{} // closed when the server's accept loop returns
	addr   string
	tier   *peernet.Tier
}

// closeNodes stops every node: the middleware first (draining
// placements and flushes), then the peer clients, then the servers.
func closeNodes(nodes []*node) {
	for _, n := range nodes {
		if n != nil && n.m != nil {
			n.m.Close()
		}
	}
	for _, n := range nodes {
		if n != nil && n.tier != nil {
			n.tier.Close()
		}
	}
	for _, n := range nodes {
		if n != nil && n.srv != nil {
			n.srv.Close()
			<-n.served
		}
	}
}

// snapshot is the process and program state at one instant.
type snapshot struct {
	at    time.Time
	cpu   time.Duration
	rss   int64 // peak RSS so far, bytes
	alloc uint64
	gc    uint32
	pfs   pfsStats
	core  []core.Stats // per node
	wal   int64        // journal size, bytes
}

// run is one instance of a workload: set-up, measured epochs, checks
// and close. A nil recorder makes an untraced run.
type run struct {
	w       workload
	fx      *fixture
	dir     string
	rec     *recorder
	seed    uint64
	dur     time.Duration
	corrupt bool // corrupt the first checkpoint on the PFS

	pfs     *pacedFS
	nodes   []*node
	journal string
	loaders [][]*loader // per node
	writer  *ckptWriter

	baseGoroutines int
	setup          []time.Duration
	colds          []time.Duration // cold epoch of each instance
	warm           []time.Duration // warm epochs of the measured session
	epochs         int
	measureStart   int64 // recorder time at the start of the measured phase
	before, after  snapshot
	goroutinesLeft int
	attempted      int64 // checks made by the run itself
	failed         int64
}

func (r *run) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
}

// execute runs the workload end to end. Failed checks are counted,
// not returned; an error means the run could not be carried out.
//
// The run sets up setupReps instances from empty tiers. Each but the
// last runs its cold epoch and closes; the last runs the measured
// session. setup_s and cold_epoch_s are medians over the instances.
func (r *run) execute(ctx context.Context) error {
	r.baseGoroutines = runtime.NumGoroutine()
	pfsFS, err := storage.NewOSFS("pfs", r.fx.dir, 0)
	if err != nil {
		return err
	}
	r.pfs = newPacedFS(pfsFS, lustreCost())
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", rep))
		t0 := time.Now()
		nodes, err := r.build(ctx, dir)
		d := time.Since(t0)
		if err != nil {
			closeNodes(nodes)
			return fmt.Errorf("%s: set-up: %w", r.w.name, err)
		}
		r.setup = append(r.setup, d)
		r.nodes = nodes
		if rep == setupReps-1 {
			break
		}
		r.session(ctx, rep, false)
		r.retire()
		closeNodes(nodes)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.session(ctx, setupReps-1, true)
	if r.w.peer {
		// The shard checksums cover peer-served bytes only if some
		// reads were actually served by a peer.
		var hits int64
		for i := range r.after.core {
			hits += r.after.core[i].PeerHits - r.before.core[i].PeerHits
		}
		r.attempted++
		if hits == 0 {
			r.fail(fmt.Errorf("%s: no read was served by a peer", r.w.name))
		}
	}
	closeNodes(r.nodes)
	r.checkGoroutines()
	return nil
}

// build assembles the workload's nodes under dir and initialises them:
// what setup_s times.
func (r *run) build(ctx context.Context, dir string) ([]*node, error) {
	pfsB, err := wrapBackend(r.pfs, r.rec, lPFS)
	if err != nil {
		return nil, err
	}
	quota := int64(r.w.quota * float64(r.fx.bytes))
	if r.w.peer {
		return r.buildPeers(ctx, dir, quota, pfsB)
	}
	n := &node{id: "n0"}
	nodes := []*node{n}
	if n.tier0, err = r.newTier0(dir, n.id, quota); err != nil {
		return nodes, err
	}
	r.journal = filepath.Join(dir, "journal.wal")
	if err := r.newCore(n, []storage.Backend{n.tier0, pfsB}, core.PeerConfig{}); err != nil {
		return nodes, err
	}
	return nodes, r.init(ctx, n)
}

func (r *run) newTier0(dir, id string, quota int64) (storage.Backend, error) {
	d := filepath.Join(dir, "tier0-"+id)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return nil, err
	}
	fs, err := storage.NewOSFS("tier0-"+id, d, quota)
	if err != nil {
		return nil, err
	}
	return wrapBackend(fs, r.rec, lTier0)
}

// newCore builds n's middleware: the paper's whole-file placement on
// first read (FullFileFetch, no chunking, no eviction) and, for the
// checkpoint workload, write-back with a journal that is not fsynced
// and the default dirty budget and flusher count.
func (r *run) newCore(n *node, levels []storage.Backend, peer core.PeerConfig) error {
	gp := pool.NewGoPool(poolWorkers)
	cfg := core.Config{Levels: levels, Pool: wrapPool(gp, r.rec), FullFileFetch: true, Peer: peer}
	if r.w.ckpt {
		cfg.Write = core.WriteConfig{
			Enabled:     true,
			Durability:  func(string) core.Durability { return core.WriteBack },
			JournalPath: r.journal,
		}
	}
	m, err := core.New(cfg)
	if err != nil {
		gp.Close()
		return err
	}
	n.m = m
	return nil
}

func (r *run) init(ctx context.Context, n *node) error {
	ictx, id := r.rec.beginParent(ctx, span{kind: kCoreInit})
	err := n.m.Init(ictx)
	r.rec.end(id, 0)
	return err
}

// buildPeers assembles two nodes from the public peernet constructors:
// each serves its tier 0 on a loopback listener and reads its sibling
// through a one-connection client, a ring with one owner per file
// (R=1), and a peer tier between its tier 0 and the shared PFS. Set-up
// ends with the first successful peer round trip of each node.
func (r *run) buildPeers(ctx context.Context, dir string, quota int64, pfsB storage.Backend) ([]*node, error) {
	ids := []string{"n0", "n1"}
	ring, err := peernet.NewRing(ids, 0)
	if err != nil {
		return nil, err
	}
	var nodes []*node
	for _, id := range ids {
		n := &node{id: id}
		nodes = append(nodes, n)
		if n.tier0, err = r.newTier0(dir, id, quota); err != nil {
			return nodes, err
		}
		cfg := peernet.ServerConfig{Backend: n.tier0}
		if r.rec != nil {
			cfg.Trace = r.rec.peerServeHook()
		}
		srv, err := peernet.NewServer(cfg)
		if err != nil {
			return nodes, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nodes, err
		}
		n.srv, n.served, n.addr = srv, make(chan struct{}), ln.Addr().String()
		go func() {
			defer close(n.served)
			// Serve returns nil once the server is closed; an accept
			// error shows up as failed peer reads.
			_ = srv.Serve(ln)
		}()
	}
	for i, n := range nodes {
		other := nodes[1-i]
		c, err := peernet.NewClient(peernet.ClientConfig{
			Name:     "peer:" + other.id,
			PoolSize: 1,
			Dial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", other.addr)
			},
		})
		if err != nil {
			return nodes, err
		}
		if n.tier, err = peernet.NewTier("peers", n.id, ring, map[string]*peernet.Client{other.id: c}); err != nil {
			c.Close()
			return nodes, err
		}
		peerB, err := wrapBackend(n.tier, r.rec, lPeer)
		if err != nil {
			return nodes, err
		}
		self := n.id
		owns := func(name string) bool { return ring.Owner(name) == self }
		if err := r.newCore(n, []storage.Backend{n.tier0, peerB, pfsB}, core.PeerConfig{Tier: 1, Owns: owns}); err != nil {
			return nodes, err
		}
	}
	// The nodes start together, as a job's ranks do, and share the
	// PFS metadata server while listing it.
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.init(ctx, n)
		}()
	}
	wg.Wait()
	for i, n := range nodes {
		if errs[i] != nil {
			return nodes, errs[i]
		}
		if err := n.tier.Ping(ctx); err != nil {
			return nodes, fmt.Errorf("node %s: first peer round trip: %w", n.id, err)
		}
	}
	return nodes, nil
}

// session runs the current nodes' loaders, and the checkpoint writer
// beside them if any: the cold epoch alone, or (full) epochs until the
// run's duration has passed and at least minEpochs have run.
func (r *run) session(ctx context.Context, instance int, full bool) {
	r.loaders, r.writer = nil, nil
	for _, n := range r.nodes {
		var ls []*loader
		for range r.w.loaders {
			ls = append(ls, newLoader(n.m, r.rec, r.w.view))
		}
		r.loaders = append(r.loaders, ls)
	}
	if r.w.ckpt {
		r.writer = newCkptWriter(r.nodes[0].m, r.rec, r.fx.dir, r.seed, r.corrupt)
	}
	r.before = r.snap()
	if r.rec != nil {
		r.measureStart = r.rec.now()
	}
	stop := make(chan struct{})
	var wwg sync.WaitGroup
	if r.writer != nil {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			r.writer.run(ctx, stop)
		}()
	}
	deadline := r.before.at.Add(r.dur)
	for e := 0; ; e++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i := range r.nodes {
			order := shuffle(r.seed, instance, e, i, len(r.fx.shards))
			wg.Add(1)
			go func() {
				defer wg.Done()
				epoch(ctx, r.loaders[i], r.fx, order)
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		if e == 0 {
			r.colds = append(r.colds, d)
			for _, l := range r.allLoaders() {
				l.markWarm()
			}
		} else {
			r.warm = append(r.warm, d)
		}
		r.epochs = e + 1
		if !full || r.epochs >= minEpochs && !time.Now().Before(deadline) {
			break
		}
	}
	close(stop)
	wwg.Wait()
	r.after = r.snap()
}

// retire folds the checks of a finished session into the run's own.
func (r *run) retire() {
	r.attempted, r.failed = r.counts()
	r.loaders, r.writer = nil, nil
}

func (r *run) allLoaders() []*loader {
	var out []*loader
	for _, ls := range r.loaders {
		out = append(out, ls...)
	}
	return out
}

func (r *run) snap() snapshot {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rss:   ru.Maxrss << 10,
		alloc: ms.TotalAlloc,
		gc:    ms.NumGC,
		pfs:   r.pfs.stats(),
	}
	for _, n := range r.nodes {
		s.core = append(s.core, n.m.Stats())
	}
	if r.w.ckpt {
		if fi, err := os.Stat(r.journal); err == nil {
			s.wal = fi.Size()
		}
	}
	return s
}

// checkGoroutines requires the goroutine count to return to where it
// was before set-up, allowing closed connections a moment to unwind.
func (r *run) checkGoroutines() {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > r.baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	r.goroutinesLeft = runtime.NumGoroutine() - r.baseGoroutines
	r.attempted++
	if r.goroutinesLeft > 0 {
		r.fail(fmt.Errorf("%d goroutines still running after Close", r.goroutinesLeft))
	}
}

// counts returns every check and failure of the run.
func (r *run) counts() (attempted, failed int64) {
	attempted, failed = r.attempted, r.failed
	for _, l := range r.allLoaders() {
		attempted += l.attempted
		failed += l.failed
	}
	if r.writer != nil {
		attempted += r.writer.attempted
		failed += r.writer.failed
	}
	return attempted, failed
}
