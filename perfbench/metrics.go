package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metric is one reported number. n is the sample count behind a
// percentile, 0 for anything else.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

const mib = 1 << 20

// quantile returns the nearest-rank q-quantile of xs, 0 when empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func median(xs []int64) float64 { return quantile(xs, 0.5) }

func ns(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// warmLatency returns every loader pread of the warm epochs.
func (r *run) warmLatency() []int64 {
	var out []int64
	for _, l := range r.allLoaders() {
		out = append(out, l.lat[l.warmFrom:]...)
	}
	return out
}

// loaderTotals sums the loaders' preads and bytes over the measured
// session.
func (r *run) loaderTotals() (preads, bytes int64) {
	for _, l := range r.allLoaders() {
		preads += l.preads
		bytes += l.bytes
	}
	return preads, bytes
}

// recordsPerSec is the records of one warm epoch over the median warm
// epoch's wall time: every warm epoch parses the whole dataset on each
// node, and the median keeps one epoch stalled by a noisy neighbour
// from moving the figure.
func (r *run) recordsPerSec() float64 {
	perEpoch := float64(r.fx.records() * len(r.nodes))
	return ratio(perEpoch, median(ns(r.warm))/1e9)
}

// endToEnd returns the metrics a user of the system would see.
func (r *run) endToEnd() []metric {
	preads, bytes := r.loaderTotals()
	lat := r.warmLatency()
	d := r.after.pfs.sub(r.before.pfs)
	return []metric{
		{name: "setup_s", value: median(ns(r.setup)) / 1e9, unit: "s"},
		{name: "records_per_s", value: r.recordsPerSec(), unit: "records/s"},
		{name: "cold_epoch_s", value: median(ns(r.colds)) / 1e9, unit: "s"},
		{name: "read_p50_us", value: quantile(lat, 0.5) / 1e3, unit: "us", n: len(lat)},
		{name: "read_p90_us", value: quantile(lat, 0.90) / 1e3, unit: "us", n: len(lat)},
		{name: "pfs_ops_saved_pct", value: 100 * (1 - ratio(float64(d.readOps), float64(preads))), unit: "%"},
		{name: "cpu_s_per_gib", value: ratio((r.after.cpu - r.before.cpu).Seconds(), float64(bytes)/(1<<30)), unit: "s/GiB"},
		{name: "alloc_kb_per_read", value: ratio(float64(r.after.alloc-r.before.alloc)/1024, float64(preads)), unit: "KiB"},
		{name: "peak_rss_mib", value: float64(r.after.rss) / mib, unit: "MiB"},
	}
}

// unbounded returns the end-to-end numbers BENCHMARK.json cannot bound:
// the read p99, which moves 20-30% between identical runs on a small
// shared VM, the checkpoint workload's own numbers (zero where a
// workload has no writer) and the run's failure share.
func (r *run) unbounded() []metric {
	w := r.writer
	if w == nil {
		w = &ckptWriter{}
	}
	attempted, failed := r.counts()
	d := r.after.pfs.sub(r.before.pfs)
	lat := r.warmLatency()
	return []metric{
		{name: "read_p99_us", value: quantile(lat, 0.99) / 1e3, unit: "us", n: len(lat)},
		{name: "ckpt_ack_p50_us", value: quantile(w.acks, 0.5) / 1e3, unit: "us", n: len(w.acks)},
		{name: "ckpt_ack_p99_us", value: quantile(w.acks, 0.99) / 1e3, unit: "us", n: len(w.acks)},
		{name: "ckpt_stall_ms", value: median(w.stalls) / 1e6, unit: "ms", n: len(w.stalls)},
		{name: "ckpt_durable_ms", value: median(w.durables) / 1e6, unit: "ms", n: len(w.durables)},
		{name: "pfs_write_amp", value: ratio(float64(d.writeBytes), float64(w.acked)), unit: "x"},
		{name: "failed_ops_pct", value: 100 * ratio(float64(failed), float64(attempted)), unit: "%"},
	}
}

// spanIndex indexes a traced run's spans by parent.
type spanIndex struct {
	spans    []span
	childDur []int64 // summed duration of each span's direct children
	children []int32 // number of direct children
}

func indexSpans(spans []span) *spanIndex {
	x := &spanIndex{spans: spans, childDur: make([]int64, len(spans)+1), children: make([]int32, len(spans)+1)}
	for i := range spans {
		if p := spans[i].parent; p > 0 {
			x.childDur[p] += spans[i].dur()
			x.children[p]++
		}
	}
	return x
}

// self is span i's duration minus its direct children's.
func (x *spanIndex) self(i int) int64 { return x.spans[i].dur() - x.childDur[i+1] }

// perLayer returns the traced run's per-layer metrics. u is the
// untraced run of the same workload and seed: the checkpoint numbers
// come from it, and it is the base of the tracing overhead.
func perLayer(t, u *run) []metric {
	x := indexSpans(t.rec.spans())
	var (
		tier0Read, readSelf, writeSelf, initSelf []int64
		poolWait, poolRun, peerRead, serve       []int64
		tier0WriteB, tier0FileB                  int64
		parseSelf, records, poolBusy             int64
		accounted, badSelf, orphanReads          int64
	)
	clientByReq := map[uint64]int64{}
	for i := range x.spans {
		s := &x.spans[i]
		if s.kind == kCoreInit {
			initSelf = append(initSelf, x.self(i))
		}
		if s.start < t.measureStart {
			continue
		}
		switch s.kind {
		case kCoreRead:
			readSelf = append(readSelf, x.self(i))
			accounted += s.dur()
			if x.children[i+1] == 0 {
				orphanReads++
			}
		case kCoreWrite:
			writeSelf = append(writeSelf, x.self(i))
		case kTFParse:
			parseSelf += x.self(i)
			records += s.bytes
		case kPoolTask:
			poolWait = append(poolWait, s.wait)
			poolRun = append(poolRun, s.dur())
			poolBusy += s.dur()
		case kPeerServe:
			serve = append(serve, s.dur())
		case kStorage:
			switch {
			case s.layer == lTier0 && s.op == opRead:
				tier0Read = append(tier0Read, s.dur())
			case s.layer == lTier0 && s.op == opWrite:
				tier0WriteB += s.bytes
			case s.layer == lTier0 && s.op == opReadFile:
				tier0FileB += s.bytes
			case s.layer == lPeer && s.op == opRead:
				peerRead = append(peerRead, s.dur())
				clientByReq[s.req] = s.dur()
			}
		}
		if x.self(i) < 0 {
			badSelf++
		}
	}
	var wire []int64
	for i := range x.spans {
		if s := &x.spans[i]; s.kind == kPeerServe && s.start >= t.measureStart {
			if c, ok := clientByReq[s.req]; ok {
				wire = append(wire, c-s.dur())
			}
		}
	}

	// The loaders time each pread themselves, outside its span; their
	// total must match what the spans account for, up to the cost of
	// recording a span.
	var loaderNS int64
	for _, l := range t.allLoaders() {
		loaderNS += l.readNS
	}
	unaccounted := 100 * ratio(float64(loaderNS-accounted), float64(loaderNS))
	t.attempted++
	if badSelf > 0 || orphanReads > 0 || unaccounted < 0 || unaccounted > maxUnaccountedPct {
		t.fail(fmt.Errorf("trace does not account for the loader's reads: %.2f%% unaccounted, %d negative self times, %d reads without a storage or peer child",
			unaccounted, badSelf, orphanReads))
	}

	var route struct{ placed, partial, pfs, peer, peerMiss, fallback, placements, skips, placedB, flushes, flushedB, stalls int64 }
	for i := range t.after.core {
		a, b := t.after.core[i], t.before.core[i]
		src := len(a.ReadsServed) - 1
		route.placed += (a.ReadsServed[0] - b.ReadsServed[0]) - (a.PartialHits - b.PartialHits)
		route.partial += a.PartialHits - b.PartialHits
		route.pfs += a.ReadsServed[src] - b.ReadsServed[src]
		route.peer += a.PeerHits - b.PeerHits
		route.peerMiss += a.PeerMisses - b.PeerMisses
		route.fallback += a.Fallbacks - b.Fallbacks
		route.placements += a.Placements - b.Placements
		route.skips += a.PlacementSkips - b.PlacementSkips
		route.placedB += a.PlacedBytes - b.PlacedBytes
		route.flushes += a.Flushes - b.Flushes
		route.flushedB += a.FlushedBytes - b.FlushedBytes
		route.stalls += a.WriteStalls - b.WriteStalls
	}
	d := t.after.pfs.sub(t.before.pfs)
	var acked int64
	if t.writer != nil {
		acked = t.writer.acked
	}
	ackOverhead := 0.0
	if u.writer != nil {
		ua := quantile(u.writer.acks, 0.5)
		ackOverhead = 100 * ratio(quantile(t.writer.acks, 0.5)-ua, ua)
	}

	out := []metric{
		{name: "storage.pfs.read_ops", value: float64(d.readOps), unit: "count"},
		{name: "storage.pfs.read_mib", value: float64(d.readBytes) / mib, unit: "MiB"},
		{name: "storage.pfs.write_ops", value: float64(d.writeOps), unit: "count"},
		{name: "storage.pfs.write_mib", value: float64(d.writeBytes) / mib, unit: "MiB"},
		{name: "storage.pfs.meta_ops", value: float64(d.metaOps), unit: "count"},
		{name: "storage.pfs.busy_s", value: d.busy.Seconds(), unit: "s"},
		{name: "storage.pfs.wait_s", value: d.wait.Seconds(), unit: "s"},
		{name: "storage.tier0.read_ops", value: float64(len(tier0Read)), unit: "count"},
		{name: "storage.tier0.read_us_p50", value: median(tier0Read) / 1e3, unit: "us", n: len(tier0Read)},
		{name: "storage.tier0.write_mib", value: float64(tier0WriteB) / mib, unit: "MiB"},
		{name: "storage.tier0.readfile_mib", value: float64(tier0FileB) / mib, unit: "MiB"},
		{name: "core.read_self_us_p50", value: median(readSelf) / 1e3, unit: "us", n: len(readSelf)},
		{name: "core.read_self_us_p99", value: quantile(readSelf, 0.99) / 1e3, unit: "us", n: len(readSelf)},
		{name: "core.route.placed", value: float64(route.placed), unit: "count"},
		{name: "core.route.partial", value: float64(route.partial), unit: "count"},
		{name: "core.route.pfs", value: float64(route.pfs), unit: "count"},
		{name: "core.route.peer", value: float64(route.peer), unit: "count"},
		{name: "core.route.peer_miss", value: float64(route.peerMiss), unit: "count"},
		{name: "core.route.fallback", value: float64(route.fallback), unit: "count"},
		{name: "core.init_self_ms", value: median(initSelf) / 1e6, unit: "ms", n: len(initSelf)},
		{name: "core.placements", value: float64(route.placements), unit: "count"},
		{name: "core.placement_skips", value: float64(route.skips), unit: "count"},
		{name: "core.placed_mib", value: float64(route.placedB) / mib, unit: "MiB"},
		{name: "core.write_self_us_p50", value: median(writeSelf) / 1e3, unit: "us", n: len(writeSelf)},
		{name: "core.flushes", value: float64(route.flushes), unit: "count"},
		{name: "core.flushed_mib", value: float64(route.flushedB) / mib, unit: "MiB"},
		{name: "core.write_stalls", value: float64(route.stalls), unit: "count"},
		{name: "pool.tasks", value: float64(len(poolRun)), unit: "count"},
		{name: "pool.queue_wait_ms_p50", value: median(poolWait) / 1e6, unit: "ms", n: len(poolWait)},
		{name: "pool.run_ms_p50", value: median(poolRun) / 1e6, unit: "ms", n: len(poolRun)},
		{name: "pool.busy_s", value: float64(poolBusy) / 1e9, unit: "s"},
		{name: "peernet.client.read_ops", value: float64(len(peerRead)), unit: "count"},
		{name: "peernet.client.read_us_p50", value: median(peerRead) / 1e3, unit: "us", n: len(peerRead)},
		{name: "peernet.client.read_us_p99", value: quantile(peerRead, 0.99) / 1e3, unit: "us", n: len(peerRead)},
		{name: "peernet.server.backend_us_p50", value: median(serve) / 1e3, unit: "us", n: len(serve)},
		{name: "peernet.wire_us_p50", value: median(wire) / 1e3, unit: "us", n: len(wire)},
		{name: "tfrecord.records", value: float64(records), unit: "count"},
		{name: "tfrecord.parse_s", value: float64(parseSelf) / 1e9, unit: "s"},
		{name: "journal.mib_per_acked_mib", value: ratio(float64(t.after.wal-t.before.wal), float64(acked)), unit: "x"},
		{name: "runtime.gc_cycles", value: float64(t.after.gc - t.before.gc), unit: "count"},
		{name: "runtime.goroutines_after_close", value: float64(t.goroutinesLeft), unit: "count"},
		{name: "trace.overhead_pct", value: 100 * ratio(u.recordsPerSec()-t.recordsPerSec(), u.recordsPerSec()), unit: "%"},
		{name: "trace.ckpt_ack_overhead_pct", value: ackOverhead, unit: "%"},
		{name: "trace.read_unaccounted_pct", value: unaccounted, unit: "%"},
	}
	return append(out, u.unbounded()...)
}

// maxUnaccountedPct bounds the share of the loader-timed read total
// that the spans may miss: the cost of opening and closing a span.
const maxUnaccountedPct = 10
