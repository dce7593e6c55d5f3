// Package core implements MONARCH, the paper's contribution: a
// framework-agnostic middleware for hierarchical storage management
// that sits between a deep-learning framework's data loader and a
// hierarchy of storage backends.
//
// The three modules of the paper's §III map onto this package as
// follows:
//
//   - storage hierarchy  → Config.Levels / the levels slice: an ordered
//     list of storage drivers, each wrapping a storage.Backend with a
//     quota; every level except the last starts empty and is
//     read-write, the last level is the read-only PFS holding the
//     dataset;
//   - placement handler  → placement.go: a background thread pool that
//     copies each file, on its first read, into the highest tier with
//     free space — whole-file fetches, no eviction;
//   - metadata container → metadata.go: an ephemeral virtual namespace
//     mapping every file to its size and current tier, built at job
//     start by listing the PFS dataset directory.
//
// The public entry point mirrors the paper's TensorFlow integration: a
// single Monarch.ReadAt(name, buf, off) call replacing the POSIX pread
// in the framework's file-system driver.
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
	"monarch/internal/trace"
)

// StagingMode selects when data placement happens (§III-A discusses
// both options).
type StagingMode int

const (
	// StageOnFirstRead places each file when the framework first reads
	// it during epoch 1 — the paper's choice, adding no start-up delay.
	StageOnFirstRead StagingMode = iota
	// StagePreTraining copies files (in namespace order) into the upper
	// tiers before any read is served — the paper's rejected option i,
	// kept for the abl-staging ablation.
	StagePreTraining
)

// String names the mode.
func (s StagingMode) String() string {
	switch s {
	case StageOnFirstRead:
		return "on-first-read"
	case StagePreTraining:
		return "pre-training"
	default:
		return "unknown"
	}
}

// Config assembles a Monarch instance.
type Config struct {
	// Levels is the storage hierarchy in placement order. The last
	// level is the PFS: it must already hold the dataset and is treated
	// as a read-only source. At least two levels are required.
	Levels []storage.Backend
	// Pool executes background placements. Required unless every read
	// should be served from the source (Disabled).
	Pool pool.Executor
	// FullFileFetch enables the §III-A optimisation: when the framework
	// reads only a slice of a file, the background copy still fetches
	// the file's full content so subsequent slices hit the fast tier.
	// Disabling it (abl-fullfetch) copies only bytes the framework has
	// already read — i.e. placement degenerates to per-range caching.
	FullFileFetch bool
	// ChunkSize, when positive, splits each background placement into
	// fixed-size chunks fanned out across the pool; the read path then
	// serves any range whose chunks have already landed from the upper
	// tier while the rest of the copy is still in flight (mid-copy
	// read-through). The destination tier must implement
	// storage.RangeWriter or the placement silently falls back to a
	// whole-file copy. Zero preserves the paper-faithful whole-file
	// behaviour.
	ChunkSize int64
	// Staging selects placement timing; see StagingMode.
	Staging StagingMode
	// Eviction is nil for the paper's no-eviction policy (the right
	// choice for a single job with uniform access), a HeatPolicy for
	// heat-driven multi-job admission/eviction, or LRU/FIFO for the
	// abl-eviction ablation.
	Eviction EvictionPolicy
	// JobOf attributes a file name to a tenant job for quota accounting
	// and per-job fairness counters. Nil with Tenants set defaults to
	// JobFromPath (the first path segment); nil without Tenants disables
	// per-job accounting entirely.
	JobOf func(name string) string
	// Tenants declares per-job guaranteed shares of every cache tier;
	// see TenantConfig. Empty disables quota enforcement (single-tenant
	// behaviour). Borrowing is work-conserving: shares only bite under
	// tier pressure.
	Tenants []TenantConfig
	// Health tunes the per-tier circuit breaker that demotes entries
	// off failing tiers and probes Down tiers for recovery. The zero
	// value enables the breaker with defaults; set Health.Disabled for
	// the pre-breaker behaviour.
	Health HealthConfig
	// Retry re-queues placements that failed transiently instead of
	// marking the file unplaceable. The zero value disables retries.
	Retry RetryPolicy
	// Disabled turns Monarch into a pass-through to the source level
	// (used by baselines that want the namespace but no tiering).
	Disabled bool
	// Events, when non-nil, receives placement/eviction/fallback events
	// for observability. The log never blocks the data path.
	Events *EventLog
	// MetricsAddr, when non-empty, serves the instance's metrics
	// registry over HTTP at this "host:port" (":0" picks a free port;
	// see Monarch.MetricsURL). Endpoints: /metrics (Prometheus text),
	// /metrics.json (JSON snapshot), /debug/vars (expvar-style map).
	// The server starts in New and stops with Close/Shutdown.
	MetricsAddr string
	// Trace, when non-nil, receives typed spans from the read,
	// placement, chunk-copy and probe paths. The hook runs
	// synchronously on the instrumented path: it must be fast and must
	// never block.
	Trace obs.TraceHook
	// TracePath, when non-empty, streams an access trace to this file:
	// one fixed-size event per read, placement, chunk copy, epoch mark
	// and tier-state change (see internal/trace). A ".bin" suffix
	// selects the compact binary encoding; anything else writes JSONL.
	// The recorder closes (and writes its trailer) with Close/Shutdown.
	TracePath string
	// TraceSample records 1 in N plain read hits (≤1 records every
	// read). Partial hits, fallbacks, errors, placements and state
	// changes are never sampled out, so the trace stays in lock-step
	// with the monarch_events_total counters.
	TraceSample int
	// TraceClock supplies the trace's monotonic nanosecond clock; the
	// experiments pass the simulation clock so captured timestamps are
	// virtual. Nil uses wall-monotonic time.
	TraceClock func() int64
	// TraceMeta is embedded verbatim in the trace header (scale,
	// dataset name, copy-chunk size — whatever replays need).
	TraceMeta map[string]string
	// DisablePprof removes the net/http/pprof handlers that the
	// MetricsAddr endpoint serves under /debug/pprof/ by default.
	DisablePprof bool
	// Peer wires a peer cache tier (a level serving sibling nodes'
	// caches over the wire) into the read path; see PeerConfig.
	Peer PeerConfig
	// Write enables the write path — Create/WriteAt/Flush/Remove for
	// runtime-created files (checkpoints), with per-path durability and
	// an optional crash journal; see WriteConfig.
	Write WriteConfig
}

// PeerConfig routes reads through a peer cache tier. With a consistent
// ownership ring, every node caches only the files it owns and serves
// them to siblings; reads of non-owned files go through the owner's
// cache instead of hammering the PFS.
type PeerConfig struct {
	// Tier is the hierarchy index of the peer tier — the level whose
	// backend serves sibling caches (a peernet.Tier). It must sit
	// strictly between the top local tier and the source: 0 < Tier <
	// len(Levels)-1. Zero disables peer routing (level 0 is the top
	// local tier and can never be the peer tier).
	Tier int
	// Owns reports whether this node owns name on the ownership ring.
	// Owned files are cached locally by the placement handler;
	// non-owned reads route through the peer tier. Required when Tier
	// is set.
	Owns func(name string) bool
}

// enabled reports whether peer routing is configured.
func (p PeerConfig) enabled() bool { return p.Tier != 0 }

// Monarch is the middleware instance. All methods are safe for
// concurrent use.
type Monarch struct {
	cfg Config
	// base anchors the instance's monotonic clock (see now).
	base   time.Time
	levels []*driver
	source *driver // == levels[len-1]
	meta   *metadataContainer
	stats  statsCollector
	placer *placer
	health *healthTracker
	// tenants is the per-job quota ledger; nil unless Config.JobOf or
	// Config.Tenants enables multi-job tenancy.
	tenants *tenantTable
	inst    instruments
	// writes is the write subsystem (durable checkpoints, write-back
	// flusher, crash journal); nil unless Config.Write.Enabled.
	writes *writeState
	tracer *trace.Recorder
	// spanHook fans spans out to the trace recorder and Config.Trace;
	// nil when neither is configured.
	spanHook obs.TraceHook

	metricsLn  net.Listener
	metricsSrv *http.Server
	traceOnce  sync.Once
}

// ErrNotInitialized is returned by reads before Init has built the
// namespace.
var ErrNotInitialized = errors.New("monarch: Init has not been called")

// ErrUnknownFile is returned for names absent from the namespace.
var ErrUnknownFile = errors.New("monarch: file not in namespace")

// New validates cfg and assembles an instance. Call Init before
// serving reads.
func New(cfg Config) (*Monarch, error) {
	if len(cfg.Levels) < 2 {
		return nil, fmt.Errorf("monarch: need at least 2 levels (got %d)", len(cfg.Levels))
	}
	if cfg.Pool == nil && !cfg.Disabled {
		return nil, fmt.Errorf("monarch: placement pool required")
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("monarch: negative ChunkSize %d", cfg.ChunkSize)
	}
	if cfg.Peer.enabled() {
		if cfg.Peer.Tier < 1 || cfg.Peer.Tier >= len(cfg.Levels)-1 {
			return nil, fmt.Errorf("monarch: peer tier %d must sit between the top tier and the source (0 < tier < %d)",
				cfg.Peer.Tier, len(cfg.Levels)-1)
		}
		if cfg.Peer.Owns == nil {
			return nil, fmt.Errorf("monarch: peer routing requires an Owns function")
		}
	}
	if cfg.Write.Enabled {
		if cfg.Disabled {
			return nil, fmt.Errorf("monarch: the write path requires tiering (Disabled is set)")
		}
		if _, ok := cfg.Levels[0].(storage.RangeWriter); !ok {
			return nil, fmt.Errorf("monarch: the write path requires level 0 (%s) to implement storage.RangeWriter",
				cfg.Levels[0].Name())
		}
		if _, ok := cfg.Levels[len(cfg.Levels)-1].(storage.RangeWriter); !ok {
			return nil, fmt.Errorf("monarch: the write path requires the source level (%s) to implement storage.RangeWriter",
				cfg.Levels[len(cfg.Levels)-1].Name())
		}
	}
	m := &Monarch{cfg: cfg, base: time.Now()}
	for i, b := range cfg.Levels {
		if b == nil {
			return nil, fmt.Errorf("monarch: level %d backend is nil", i)
		}
		d := &driver{level: i, backend: b}
		d.vr, _ = b.(storage.ViewReader)
		m.levels = append(m.levels, d)
	}
	m.source = m.levels[len(m.levels)-1]
	m.meta = newMetadataContainer(len(m.levels))
	m.inst.reg = obs.NewRegistry()
	m.stats.init(m.inst.reg, len(m.levels))
	caps := make([]int64, len(m.levels))
	for i, d := range m.levels {
		caps[i] = d.backend.Capacity()
	}
	tenants, err := newTenantTable(cfg, caps)
	if err != nil {
		return nil, err
	}
	m.tenants = tenants
	if tb, ok := cfg.Eviction.(tenancyBinder); ok && m.tenants != nil {
		tb.bindTenancy(m.tenants)
	}
	m.placer = newPlacer(m)
	m.health = newHealthTracker(cfg.Health, len(m.levels)-1)
	if cfg.Write.Enabled {
		m.writes = newWriteState(m, cfg.Write)
	}
	m.initObs()
	m.initTenantObs()
	if cfg.TracePath != "" {
		if err := m.startTrace(); err != nil {
			return nil, err
		}
	}
	var tracerHook obs.TraceHook
	if m.tracer != nil {
		tracerHook = m.tracer.HookSpan
	}
	m.spanHook = obs.MultiHook(tracerHook, cfg.Trace)
	if cfg.MetricsAddr != "" {
		if err := m.startMetrics(); err != nil {
			m.closeTrace()
			return nil, err
		}
	}
	return m, nil
}

// Init builds the metadata container by listing the source level (the
// paper's start-up namespace traversal). Calling it a second time is an
// error: the namespace is ephemeral per job, and rebuilding it would
// silently forget completed placements.
func (m *Monarch) Init(ctx context.Context) error {
	if m.meta.initialized() {
		return fmt.Errorf("monarch: Init called twice")
	}
	// Journal recovery runs BEFORE the namespace listing: write-back
	// bytes a crashed predecessor acked but never flushed land on the
	// PFS first, so the recovered files are listed like any other.
	if err := m.initWrites(ctx); err != nil {
		return err
	}
	infos, err := m.source.backend.List(ctx)
	if err != nil {
		return fmt.Errorf("monarch: init: %w", err)
	}
	m.meta.populate(infos, len(m.levels)-1)
	if m.tracer != nil {
		files := make([]trace.File, len(infos))
		for i, fi := range infos {
			files[i] = trace.File{Name: fi.Name, Size: fi.Size}
		}
		m.tracer.AddFiles(files)
	}
	if m.cfg.Staging == StagePreTraining && !m.cfg.Disabled {
		return m.preStage(ctx)
	}
	return nil
}

// Levels returns the number of hierarchy levels.
func (m *Monarch) Levels() int { return len(m.levels) }

// NumFiles returns the namespace size.
func (m *Monarch) NumFiles() int { return m.meta.len() }

// Stats returns a snapshot of middleware counters.
func (m *Monarch) Stats() Stats {
	s := m.stats.snapshot(m.placer.inFlight())
	if m.writes != nil {
		s.DirtyBytes = m.writes.dirtyBytes()
	}
	return s
}

// Idle reports whether no placements are queued or running.
func (m *Monarch) Idle() bool { return m.placer.inFlight() == 0 }

// Close stops the placement intake. Queued placements still complete
// (GoPool's Close additionally waits for them). The trace recorder, if
// any, flushes and writes its trailer after the pool drains, so the
// trace's summary reflects final counters.
func (m *Monarch) Close() {
	m.stopMetrics()
	if m.writes != nil {
		// Graceful: drain the dirty backlog to the PFS, persist the heat
		// snapshot, seal the journal.
		m.writes.close(true)
	}
	if m.cfg.Pool != nil {
		m.cfg.Pool.Close()
	}
	m.closeTrace()
}

// Shutdown cancels in-flight placements and stops the intake; unlike
// Close it does not wait out long copies. Cancelled placements return
// their files to the source state and are not counted as errors.
func (m *Monarch) Shutdown() {
	m.stopMetrics()
	if m.writes != nil {
		// Abrupt: skip the drain. The journal already holds every acked
		// write-back byte; the next Init replays them into the PFS.
		m.writes.close(false)
	}
	if m.cfg.Pool != nil {
		m.cfg.Pool.Shutdown()
	}
	m.closeTrace()
}

// ReadAt is the paper's Monarch.read: it serves len(p) bytes at offset
// off of the named file from whichever tier currently holds it, and —
// on the first read of a file — schedules its background placement
// into the highest tier with free space.
func (m *Monarch) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	_, n, err := m.read(ctx, name, p, off, int64(len(p)), false)
	return n, err
}

// ReadView serves up to n bytes of the named file at offset off as a
// borrowed, read-only view — the copy-free variant of ReadAt. When the
// file is fully placed on a healthy tier whose backend lends views
// (MemFS, OSFS), the returned Data points straight at the tier's bytes
// with no copy into a caller buffer; every other route (mid-copy,
// peer-routed, demoted, unknown backend) is served like ReadAt into
// pooled scratch, so ReadView is always exactly as available as ReadAt
// and moves the same counters, histograms, spans and events.
//
// The caller MUST Release the view exactly once, promptly: a MemFS
// view holds the file's read lock, so sitting on one blocks writers to
// that file.
func (m *Monarch) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	if n < 0 {
		return storage.View{}, fmt.Errorf("monarch: negative view length %d", n)
	}
	v, _, err := m.read(ctx, name, nil, off, n, true)
	return v, err
}

// ReadFull reads the entire named file through the middleware.
func (m *Monarch) ReadFull(ctx context.Context, name string) ([]byte, error) {
	e, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	p := make([]byte, e.size)
	n, err := m.ReadAt(ctx, name, p, 0)
	if err != nil {
		return nil, err
	}
	return p[:n], nil
}

// Stat returns the namespace entry for name without touching storage.
func (m *Monarch) Stat(name string) (storage.FileInfo, error) {
	e, err := m.lookup(name)
	if err != nil {
		return storage.FileInfo{}, err
	}
	return storage.FileInfo{Name: name, Size: e.size}, nil
}

// Files returns the namespace in sorted order.
func (m *Monarch) Files() []storage.FileInfo { return m.meta.list() }

// LevelOf reports which tier currently serves name.
func (m *Monarch) LevelOf(name string) (int, error) {
	e, err := m.lookup(name)
	if err != nil {
		return 0, err
	}
	return e.currentLevel(), nil
}

// now reads the instance's monotonic clock: time.Since(base) costs one
// nanotime read, where a time.Now pair also reads the wall clock.
func (m *Monarch) now() time.Duration { return time.Since(m.base) }

// owns reports whether this node should cache name locally. Without
// peer routing every node owns the whole namespace.
func (m *Monarch) owns(name string) bool {
	return !m.cfg.Peer.enabled() || m.cfg.Peer.Owns(name)
}

func (m *Monarch) lookup(name string) (*fileEntry, error) {
	if !m.meta.initialized() {
		return nil, ErrNotInitialized
	}
	e, ok := m.meta.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFile, name)
	}
	return e, nil
}

// driver is the paper's "storage driver": a hierarchy level wrapping a
// backend.
type driver struct {
	level   int
	backend storage.Backend
	// vr is the backend's zero-copy capability, resolved once. viewOff
	// flips permanently when the backend turns out not to support views
	// after all (a wrapper like Counting asserts ViewReader but its
	// wrapped backend may not), so the fast path stops retrying.
	vr      storage.ViewReader
	viewOff atomic.Bool
}

// viewReader returns the driver's usable zero-copy capability, nil if
// absent or disabled.
func (d *driver) viewReader() storage.ViewReader {
	if d.vr == nil || d.viewOff.Load() {
		return nil
	}
	return d.vr
}
