package core

import (
	"strconv"
	"sync"

	"monarch/internal/obs"
)

// Stats is a snapshot of the middleware's counters. Per-level slices
// are indexed by hierarchy level; the last index is the PFS — the
// experiments read "I/O pressure on the PFS" from that slot.
//
// Stats is a read-only view derived from the obs metrics registry: the
// statsCollector's fields ARE registry counter handles, so a scrape of
// the Prometheus endpoint and a Stats() call can never disagree.
type Stats struct {
	// ReadsServed / BytesServed count foreground reads by the level
	// that served them.
	ReadsServed []int64
	BytesServed []int64
	// Placements is the number of files successfully moved to an upper
	// tier; PlacedBytes the bytes they amount to.
	Placements  int64
	PlacedBytes int64
	// PlacementSkips counts files left on the PFS because no tier had
	// room (or the fetch ablation disabled copying).
	PlacementSkips int64
	// PlacementErrors counts operational failures during placement.
	PlacementErrors int64
	// FullReadReuses counts placements satisfied from content the
	// framework had already read in full (§III-B).
	FullReadReuses int64
	// ChunkPlacements counts individual chunks written by chunked
	// placements (Config.ChunkSize > 0).
	ChunkPlacements int64
	// PartialHits counts foreground reads served from an upper tier
	// while that file's chunked placement was still in flight —
	// ranges whose chunks had already landed. PartialHitBytes is the
	// bytes they amount to.
	PartialHits     int64
	PartialHitBytes int64
	// PeerHits counts foreground reads served by the peer cache tier —
	// files this node does not own, read from their owner's cache over
	// the wire. PeerHitBytes is the bytes they amount to.
	PeerHits     int64
	PeerHitBytes int64
	// PeerMisses counts reads routed to the peer tier whose owner had
	// not cached the file yet; the read was re-served from the source.
	// A miss is protocol behaviour, not a failure: it feeds neither
	// Fallbacks nor the tier breaker.
	PeerMisses int64
	// PeerHedges counts peer hits served under a hedge: the primary
	// replica exceeded its adaptive latency threshold, so the read
	// raced a second replica and took the first answer.
	PeerHedges int64
	// Fallbacks counts foreground reads re-served from the PFS after an
	// upper tier failed.
	Fallbacks int64
	// Evictions counts files removed from a tier by the eviction policy
	// (the heat engine under tenancy, or an abl-eviction ablation).
	Evictions int64
	// EvictionRaces counts reads that looked up a placed (or mid-copy)
	// file and found its tier copy already removed — or replaced — by a
	// concurrent eviction; they were re-served from the source with no
	// breaker feed, like peer misses.
	EvictionRaces int64
	// Promotions counts unplaceable files re-entered into the placement
	// pipeline because their heat came to justify displacing a colder
	// resident.
	Promotions int64
	// Demotions counts entries re-pointed from a Down tier to the
	// source level by the circuit breaker.
	Demotions int64
	// PlacementRetries counts placements re-queued after a transient
	// failure (Config.Retry).
	PlacementRetries int64
	// TierTrips counts circuit-breaker openings (Healthy/Suspect→Down).
	TierTrips int64
	// TierRecoveries counts successful recovery probes (Down→Healthy).
	TierRecoveries int64
	// Probes counts recovery probes attempted against Down tiers.
	Probes int64
	// Creates counts writable files registered through Create.
	Creates int64
	// Writes counts foreground WriteAt acks (both durability levels);
	// WriteBacks is the subset acked by tier 0 with the flush deferred.
	// WrittenBytes is the foreground bytes acked.
	Writes       int64
	WriteBacks   int64
	WrittenBytes int64
	// Flushes counts background flushes of write-back files to the PFS;
	// FlushedBytes the dirty bytes they retired.
	Flushes      int64
	FlushedBytes int64
	// WriteStalls counts writers that blocked on the dirty budget.
	WriteStalls int64
	// Removes counts writable files deleted through Remove.
	Removes int64
	// RecoveredFiles counts files whose journaled write-back state was
	// replayed into the PFS by Init after a crash.
	RecoveredFiles int64
	// PlacementPauses counts background placement tasks paused by the
	// checkpoint-burst gate.
	PlacementPauses int64
	// DirtyBytes is the current write-back backlog: bytes acked by tier
	// 0 but not yet flushed to the PFS.
	DirtyBytes int64
	// InFlight is the number of queued or running placement tasks
	// (including retries and recovery probes).
	InFlight int
	// Jobs holds per-tenant fairness counters, keyed by job name; nil
	// unless Config.JobOf or Config.Tenants enabled tenancy.
	Jobs map[string]JobStats
}

// JobStats are one tenant's fairness counters.
type JobStats struct {
	// ReadsServed / BytesServed count the job's foreground reads.
	ReadsServed int64
	BytesServed int64
	// Hits counts the job's reads served above the source level.
	Hits int64
	// Evictions counts the job's files evicted from a tier.
	Evictions int64
}

// HitRatio returns the fraction of the job's reads served above the
// source level.
func (j JobStats) HitRatio() float64 {
	if j.ReadsServed == 0 {
		return 0
	}
	return float64(j.Hits) / float64(j.ReadsServed)
}

// HitRatio returns the fraction of foreground reads served above the
// source level.
func (s Stats) HitRatio() float64 {
	var upper, total int64
	for i, n := range s.ReadsServed {
		total += n
		if i < len(s.ReadsServed)-1 {
			upper += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(upper) / float64(total)
}

// statsCollector is the live, concurrent form of Stats. Every field is
// a handle into the instance's obs registry — there is exactly one
// copy of each count, and Stats/the Prometheus endpoint/the JSON
// snapshot are all views over it.
type statsCollector struct {
	readsServed []*obs.Counter
	bytesServed []*obs.Counter
	// writtenBytes counts placement bytes landing on each tier
	// (registry-only: whole-file copies plus individual chunks, even
	// chunks of a copy that later fails and is removed).
	writtenBytes    []*obs.Counter
	placements      *obs.Counter
	placedBytes     *obs.Counter
	placementSkips  *obs.Counter
	placementErrors *obs.Counter
	fullReadReuses  *obs.Counter
	chunkPlacements *obs.Counter
	partialHits     *obs.Counter
	partialHitBytes *obs.Counter
	peerHits        *obs.Counter
	peerHitBytes    *obs.Counter
	peerMisses      *obs.Counter
	peerHedges      *obs.Counter
	fallbacks       *obs.Counter
	evictions       *obs.Counter
	evictionRaces   *obs.Counter
	promotions      *obs.Counter
	demotions       *obs.Counter
	retries         *obs.Counter
	tierTrips       *obs.Counter
	tierRecoveries  *obs.Counter
	probes          *obs.Counter
	creates         *obs.Counter
	writes          *obs.Counter
	writeBacks      *obs.Counter
	writtenBytesFg  *obs.Counter
	flushes         *obs.Counter
	flushedBytes    *obs.Counter
	writeStalls     *obs.Counter
	removes         *obs.Counter
	recoveredFiles  *obs.Counter
	placementPauses *obs.Counter

	// Per-job fairness series, registered lazily on a job's first read
	// or eviction (obs.Registry handles are idempotent and mutex-guarded,
	// so concurrent first touches are safe). reg is retained for that
	// lazy registration only.
	reg   *obs.Registry
	jobMu sync.RWMutex
	jobs  map[string]*jobCounters
}

// jobCounters are one tenant's live fairness handles.
type jobCounters struct {
	reads     *obs.Counter
	readBytes *obs.Counter
	hits      *obs.Counter
	evictions *obs.Counter
}

// counterRow ties one registry counter to its Stats field.
type counterRow struct {
	c          **obs.Counter
	v          *int64
	name, help string
}

// counters is the one table of scalar counters: init registers each
// handle from it and snapshot copies each value into its Stats field.
func (c *statsCollector) counters(s *Stats) []counterRow {
	return []counterRow{
		{&c.placements, &s.Placements, "monarch_placements_total", "Files successfully moved to an upper tier."},
		{&c.placedBytes, &s.PlacedBytes, "monarch_placed_bytes_total", "Bytes of successfully placed files."},
		{&c.placementSkips, &s.PlacementSkips, "monarch_placement_skips_total", "Files left on the PFS because no tier had room or fetching was disabled."},
		{&c.placementErrors, &s.PlacementErrors, "monarch_placement_errors_total", "Placements aborted by an operational failure."},
		{&c.fullReadReuses, &s.FullReadReuses, "monarch_full_read_reuses_total", "Placements satisfied from content the framework had already read in full."},
		{&c.chunkPlacements, &s.ChunkPlacements, "monarch_chunk_placements_total", "Individual chunks written by chunked placements."},
		{&c.partialHits, &s.PartialHits, "monarch_partial_hits_total", "Reads served from an upper tier while the file's chunked placement was in flight."},
		{&c.partialHitBytes, &s.PartialHitBytes, "monarch_partial_hit_bytes_total", "Bytes served by partial (mid-copy) hits."},
		{&c.peerHits, &s.PeerHits, "monarch_peer_hits_total", "Reads served by the peer cache tier (non-owned files, read from their owner's cache)."},
		{&c.peerHitBytes, &s.PeerHitBytes, "monarch_peer_hit_bytes_total", "Bytes served by peer cache hits."},
		{&c.peerMisses, &s.PeerMisses, "monarch_peer_misses_total", "Peer-routed reads whose owner had not cached the file; re-served from the source."},
		{&c.peerHedges, &s.PeerHedges, "monarch_peer_hedged_reads_total", "Peer hits served under a hedge: a second replica raced a slow primary."},
		{&c.fallbacks, &s.Fallbacks, "monarch_fallbacks_total", "Reads re-served from the PFS after an upper-tier failure."},
		{&c.evictions, &s.Evictions, "monarch_evictions_total", "Files removed from a tier by the eviction policy."},
		{&c.evictionRaces, &s.EvictionRaces, "monarch_eviction_read_races_total", "Reads that raced a concurrent eviction and were cleanly re-served from the source."},
		{&c.promotions, &s.Promotions, "monarch_promotions_total", "Unplaceable files re-entered into placement because their heat justified it."},
		{&c.demotions, &s.Demotions, "monarch_demotions_total", "Entries re-pointed from a Down tier to the source level."},
		{&c.retries, &s.PlacementRetries, "monarch_placement_retries_total", "Placements re-queued after a transient failure."},
		{&c.tierTrips, &s.TierTrips, "monarch_tier_trips_total", "Circuit-breaker openings (Healthy/Suspect to Down)."},
		{&c.tierRecoveries, &s.TierRecoveries, "monarch_tier_recoveries_total", "Successful recovery probes (Down to Healthy)."},
		{&c.probes, &s.Probes, "monarch_probes_total", "Recovery probes attempted against Down tiers."},
		{&c.creates, &s.Creates, "monarch_creates_total", "Writable files registered through Create."},
		{&c.writes, &s.Writes, "monarch_writes_total", "Foreground WriteAt acks (write-through and write-back)."},
		{&c.writeBacks, &s.WriteBacks, "monarch_write_backs_total", "Writes acked by tier 0 with the PFS flush deferred."},
		{&c.writtenBytesFg, &s.WrittenBytes, "monarch_written_bytes_total", "Foreground bytes acked by the write path."},
		{&c.flushes, &s.Flushes, "monarch_flushes_total", "Background flushes of write-back files to the PFS."},
		{&c.flushedBytes, &s.FlushedBytes, "monarch_flushed_bytes_total", "Dirty bytes retired by background flushes."},
		{&c.writeStalls, &s.WriteStalls, "monarch_write_stalls_total", "Writers that blocked on the dirty budget until the flusher drained."},
		{&c.removes, &s.Removes, "monarch_removes_total", "Writable files deleted through Remove."},
		{&c.recoveredFiles, &s.RecoveredFiles, "monarch_recovered_files_total", "Files whose journaled write-back state was replayed into the PFS after a crash."},
		{&c.placementPauses, &s.PlacementPauses, "monarch_placement_pauses_total", "Background placement tasks paused by the checkpoint-burst gate."},
	}
}

func (c *statsCollector) init(reg *obs.Registry, levels int) {
	c.reg = reg
	c.jobs = make(map[string]*jobCounters)
	for i := 0; i < levels; i++ {
		tier := obs.L("tier", strconv.Itoa(i))
		c.readsServed = append(c.readsServed, reg.Counter("monarch_tier_read_ops_total",
			"Foreground reads served, by the hierarchy level that served them.", tier))
		c.bytesServed = append(c.bytesServed, reg.Counter("monarch_tier_read_bytes_total",
			"Foreground bytes served, by the hierarchy level that served them.", tier))
		c.writtenBytes = append(c.writtenBytes, reg.Counter("monarch_tier_write_bytes_total",
			"Placement bytes written into each hierarchy level (whole files and chunks).", tier))
	}
	for _, r := range c.counters(&Stats{}) {
		*r.c = reg.Counter(r.name, r.help)
	}
}

// placedOn records a whole placement landing on level.
func (c *statsCollector) placedOn(level int, bytes int64) {
	c.placements.Inc()
	c.placedBytes.Add(bytes)
}

// job returns (lazily creating) the fairness handles for one tenant.
func (c *statsCollector) job(name string) *jobCounters {
	c.jobMu.RLock()
	jc := c.jobs[name]
	c.jobMu.RUnlock()
	if jc != nil {
		return jc
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if jc = c.jobs[name]; jc == nil {
		l := obs.L("job", name)
		jc = &jobCounters{
			reads: c.reg.Counter("monarch_job_read_ops_total",
				"Foreground reads, by tenant job.", l),
			readBytes: c.reg.Counter("monarch_job_read_bytes_total",
				"Foreground bytes read, by tenant job.", l),
			hits: c.reg.Counter("monarch_job_hits_total",
				"Reads served above the source level, by tenant job.", l),
			evictions: c.reg.Counter("monarch_job_evictions_total",
				"Files evicted from a tier, by tenant job.", l),
		}
		c.jobs[name] = jc
	}
	return jc
}

// jobRead attributes one served read to its tenant; no-op without a
// tenant table, so single-tenant instances pay one nil check.
func (c *statsCollector) jobRead(t *tenantTable, file string, level, src int, bytes int64) {
	if t == nil {
		return
	}
	jc := c.job(t.job(file))
	jc.reads.Inc()
	jc.readBytes.Add(bytes)
	if level != src {
		jc.hits.Inc()
	}
}

// jobEviction attributes one eviction to its tenant.
func (c *statsCollector) jobEviction(t *tenantTable, job string) {
	if t == nil {
		return
	}
	c.job(job).evictions.Inc()
}

// hitRatio is the live form of Stats.HitRatio, exposed as the
// monarch_hit_ratio gauge.
func (c *statsCollector) hitRatio() float64 {
	var upper, total int64
	for i, ctr := range c.readsServed {
		n := ctr.Value()
		total += n
		if i < len(c.readsServed)-1 {
			upper += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(upper) / float64(total)
}

func (c *statsCollector) snapshot(inFlight int) Stats {
	s := Stats{
		ReadsServed: make([]int64, len(c.readsServed)),
		BytesServed: make([]int64, len(c.bytesServed)),
		InFlight:    inFlight,
	}
	for _, r := range c.counters(&s) {
		*r.v = (*r.c).Value()
	}
	for i := range c.readsServed {
		s.ReadsServed[i] = c.readsServed[i].Value()
		s.BytesServed[i] = c.bytesServed[i].Value()
	}
	c.jobMu.RLock()
	if len(c.jobs) > 0 {
		s.Jobs = make(map[string]JobStats, len(c.jobs))
		for name, jc := range c.jobs {
			s.Jobs[name] = JobStats{
				ReadsServed: jc.reads.Value(),
				BytesServed: jc.readBytes.Value(),
				Hits:        jc.hits.Value(),
				Evictions:   jc.evictions.Value(),
			}
		}
	}
	c.jobMu.RUnlock()
	return s
}
