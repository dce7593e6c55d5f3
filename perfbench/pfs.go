package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/simstore"
	"monarch/internal/storage"
)

// costModel is the deterministic part of a simstore.DeviceSpec, charged
// in wall-clock time instead of on the simulation clock: no lognormal
// spread (LatencySigma = 0) and no interference process.
type costModel struct {
	channels          int           // ops admitted to the setup phase at once
	slots             int           // concurrent transfers
	readLat, writeLat time.Duration // per-op setup latency (overlaps across channels)
	perOp             time.Duration // server time per op, paid inside a slot
	readBW, writeBW   float64       // bytes/second while holding a slot
	metaLat           time.Duration // per entry of a metadata op
	metaSlots         int           // concurrent metadata ops (the MDS)
}

// lustreCost is simstore.LustreSpec() as a cost model.
func lustreCost() costModel {
	s := simstore.LustreSpec()
	return costModel{
		channels:  s.Channels,
		slots:     s.Slots,
		readLat:   s.ReadLatency,
		writeLat:  s.WriteLatency,
		perOp:     s.PerOpCost,
		readBW:    s.ReadBandwidth,
		writeBW:   s.WriteBandwidth,
		metaLat:   s.MetaLatency,
		metaSlots: s.MetaSlots,
	}
}

// pfsStats are the PFS stand-in's op counters.
type pfsStats struct {
	readOps, writeOps, metaOps int64
	readBytes, writeBytes      int64
	busy, wait                 time.Duration
}

func (a pfsStats) sub(b pfsStats) pfsStats {
	return pfsStats{
		readOps: a.readOps - b.readOps, writeOps: a.writeOps - b.writeOps, metaOps: a.metaOps - b.metaOps,
		readBytes: a.readBytes - b.readBytes, writeBytes: a.writeBytes - b.writeBytes,
		busy: a.busy - b.busy, wait: a.wait - b.wait,
	}
}

// pacedFS is the PFS stand-in: a real OSFS directory whose operations
// take as long as the cost model says a Lustre client would wait.
//
// A data op first does the real I/O, then waits out its setup latency
// (at most `channels` ops are in setup at once), then reserves the
// earliest-free transfer slot for perOp + bytes/bandwidth and sleeps
// until that reservation ends. Reservations are made on each slot's
// timeline, starting at max(setup end, slot free), never at the time
// the caller happened to wake up, so sleep overshoot does not add up
// across ops and the slot's throughput matches the model. Reads and
// writes share the slots (the Lustre spec is not duplex). Metadata ops
// reserve n×metaLat on the earliest-free of metaSlots timelines.
type pacedFS struct {
	inner *storage.OSFS
	cost  costModel
	chans chan struct{} // counting semaphore over the setup phase

	mu    sync.Mutex
	slots []time.Time // when each transfer slot is next free
	meta  []time.Time // when each metadata slot is next free

	readOps, writeOps, metaOps atomic.Int64
	readBytes, writeBytes      atomic.Int64
	busyNS, waitNS             atomic.Int64
}

func newPacedFS(inner *storage.OSFS, cost costModel) *pacedFS {
	return &pacedFS{
		inner: inner,
		cost:  cost,
		chans: make(chan struct{}, cost.channels),
		slots: make([]time.Time, cost.slots),
		meta:  make([]time.Time, cost.metaSlots),
	}
}

func (p *pacedFS) stats() pfsStats {
	return pfsStats{
		readOps: p.readOps.Load(), writeOps: p.writeOps.Load(), metaOps: p.metaOps.Load(),
		readBytes: p.readBytes.Load(), writeBytes: p.writeBytes.Load(),
		busy: time.Duration(p.busyNS.Load()), wait: time.Duration(p.waitNS.Load()),
	}
}

// earliest returns the index of the timeline that frees first.
func earliest(ts []time.Time) int {
	best := 0
	for i := range ts {
		if ts[i].Before(ts[best]) {
			best = i
		}
	}
	return best
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// enter admits an op to the setup phase and returns its start time.
func (p *pacedFS) enter() time.Time {
	p.chans <- struct{}{}
	return time.Now()
}

// abort releases a setup channel for an op that failed before transfer.
func (p *pacedFS) abort() { <-p.chans }

// transfer charges one data op that entered at t0.
func (p *pacedFS) transfer(t0 time.Time, setup time.Duration, bytes int64, bw float64) {
	ready := t0.Add(setup)
	sleepUntil(ready)
	hold := p.cost.perOp + time.Duration(float64(bytes)/bw*float64(time.Second))
	p.mu.Lock()
	i := earliest(p.slots)
	start := ready
	if p.slots[i].After(start) {
		start = p.slots[i]
	}
	end := start.Add(hold)
	p.slots[i] = end
	p.mu.Unlock()
	<-p.chans // setup is over once the slot is reserved, as in simstore
	p.busyNS.Add(int64(hold))
	p.waitNS.Add(int64(start.Sub(ready)))
	sleepUntil(end)
}

func (p *pacedFS) read(t0 time.Time, n int) {
	p.readOps.Add(1)
	p.readBytes.Add(int64(n))
	p.transfer(t0, p.cost.readLat, int64(n), p.cost.readBW)
}

func (p *pacedFS) write(t0 time.Time, n int) {
	p.writeOps.Add(1)
	p.writeBytes.Add(int64(n))
	p.transfer(t0, p.cost.writeLat, int64(n), p.cost.writeBW)
}

// metaOp charges n metadata entries that started at t0.
func (p *pacedFS) metaOp(t0 time.Time, n int) {
	p.metaOps.Add(int64(n))
	p.mu.Lock()
	i := earliest(p.meta)
	start := t0
	if p.meta[i].After(start) {
		start = p.meta[i]
	}
	end := start.Add(time.Duration(n) * p.cost.metaLat)
	p.meta[i] = end
	p.mu.Unlock()
	sleepUntil(end)
}

// Name implements storage.Backend.
func (p *pacedFS) Name() string { return p.inner.Name() }

// Capacity implements storage.Backend.
func (p *pacedFS) Capacity() int64 { return p.inner.Capacity() }

// Used implements storage.Backend.
func (p *pacedFS) Used() int64 { return p.inner.Used() }

// List implements storage.Backend, charging one metadata op per entry.
func (p *pacedFS) List(ctx context.Context) ([]storage.FileInfo, error) {
	t0 := time.Now()
	infos, err := p.inner.List(ctx)
	if err == nil {
		p.metaOp(t0, len(infos))
	}
	return infos, err
}

// Stat implements storage.Backend.
func (p *pacedFS) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	t0 := time.Now()
	fi, err := p.inner.Stat(ctx, name)
	p.metaOp(t0, 1)
	return fi, err
}

// ReadAt implements storage.Backend.
func (p *pacedFS) ReadAt(ctx context.Context, name string, b []byte, off int64) (int, error) {
	t0 := p.enter()
	n, err := p.inner.ReadAt(ctx, name, b, off)
	if err != nil {
		p.abort()
		return n, err
	}
	p.read(t0, n)
	return n, nil
}

// ReadView implements storage.ViewReader, charged like ReadAt.
func (p *pacedFS) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	t0 := p.enter()
	v, err := p.inner.ReadView(ctx, name, off, n)
	if err != nil {
		p.abort()
		return v, err
	}
	p.read(t0, len(v.Data))
	return v, nil
}

// ReadFile implements storage.Backend as one whole-file read.
func (p *pacedFS) ReadFile(ctx context.Context, name string) ([]byte, error) {
	t0 := p.enter()
	data, err := p.inner.ReadFile(ctx, name)
	if err != nil {
		p.abort()
		return nil, err
	}
	p.read(t0, len(data))
	return data, nil
}

// WriteFile implements storage.Backend as one whole-file write.
func (p *pacedFS) WriteFile(ctx context.Context, name string, data []byte) error {
	t0 := p.enter()
	if err := p.inner.WriteFile(ctx, name, data); err != nil {
		p.abort()
		return err
	}
	p.write(t0, len(data))
	return nil
}

// Allocate implements storage.RangeWriter as one metadata op.
func (p *pacedFS) Allocate(ctx context.Context, name string, size int64) error {
	t0 := time.Now()
	err := p.inner.Allocate(ctx, name, size)
	p.metaOp(t0, 1)
	return err
}

// WriteAt implements storage.RangeWriter.
func (p *pacedFS) WriteAt(ctx context.Context, name string, b []byte, off int64) (int, error) {
	t0 := p.enter()
	n, err := p.inner.WriteAt(ctx, name, b, off)
	if err != nil {
		p.abort()
		return n, err
	}
	p.write(t0, n)
	return n, nil
}

// Remove implements storage.Backend as one metadata op.
func (p *pacedFS) Remove(ctx context.Context, name string) error {
	t0 := time.Now()
	err := p.inner.Remove(ctx, name)
	p.metaOp(t0, 1)
	return err
}
