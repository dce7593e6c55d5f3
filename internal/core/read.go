package core

import (
	"context"
	"errors"

	"monarch/internal/bufpool"
	"monarch/internal/obs"
	"monarch/internal/storage"
)

// The read pipeline. ReadAt and ReadView are lookup + route + serve +
// record + the post-read hooks: route decides where a read goes without
// touching anything, serve moves the bytes (with one retry on the
// source), and record accounts the outcome.

// routeKind names where a read plan sends a read.
type routeKind uint8

const (
	routeSource  routeKind = iota // the source level (the PFS)
	routePlaced                   // the upper tier the entry is placed on
	routePartial                  // the tier an in-flight chunked copy already covers
	routePeer                     // the owner's cache, through the peer tier
)

// readPlan is route's decision for one read.
type readPlan struct {
	level int
	kind  routeKind
	// demote is the Down tier the entry must be demoted off before the
	// read is served; -1 for none.
	demote int
	// view reports that the serving tier may lend a view: the file is
	// fully placed there and the tier's backend lends views.
	view bool
	// gen is the entry's copy generation when the read was routed.
	gen uint32
}

// route decides where a read of [off, off+n) of e goes. It is a pure
// function of the entry's snapshot, the breaker states, ownership, the
// chunk bitmap and Config.Disabled; serve carries out the demotion and
// the breaker feed the decision implies.
func (m *Monarch) route(e *fileEntry, off, n int64) readPlan {
	// gen is loaded before the snapshot: a copy the snapshot shows stays
	// the one routed to for as long as gen stays put.
	gen := e.gen.Load()
	st, lvl, _ := e.snapshot()
	src := m.source.level
	if lvl != src && (m.cfg.Disabled || !m.health.isDown(lvl)) {
		return readPlan{level: lvl, kind: routePlaced, demote: -1, gen: gen,
			view: st == statePlaced && !m.cfg.Disabled && m.levels[lvl].viewReader() != nil}
	}
	p := readPlan{level: src, kind: routeSource, demote: -1, gen: gen}
	if lvl != src {
		// The tier's breaker is open: demote the entry so later reads
		// skip this path too — one metadata update instead of a doomed
		// attempt per read.
		p.demote = lvl
	}
	if m.cfg.Disabled {
		return p
	}
	if plvl, ok := e.chunksCover(off, n); ok && m.cfg.ChunkSize > 0 && !m.health.isDown(plvl) {
		// Mid-copy read-through: the chunks this range touches landed.
		p.level, p.kind = plvl, routePartial
	} else if m.cfg.Peer.enabled() && !m.cfg.Peer.Owns(e.name) && !m.health.isDown(m.cfg.Peer.Tier) {
		// Not owned here: the owner's cache serves it over the peer
		// network instead of the PFS.
		p.level, p.kind = m.cfg.Peer.Tier, routePeer
	}
	return p
}

// missKind classifies a failed first attempt on an upper tier. Every
// miss is re-served from the source; the kinds differ only in how the
// outcome is accounted and whether the breaker hears about it.
type missKind uint8

const (
	missNone missKind = iota
	// missPeer: the owner has not cached the file yet — the protocol
	// working, not a failure.
	missPeer
	// missEvicted: a concurrent eviction (or a fresh chunked copy)
	// removed or replaced the tier copy between routing and reading.
	missEvicted
	// missFailed: the tier failed; a fallback, fed to the breaker.
	missFailed
)

// serve reads the plan into p, filling o. A first attempt on an upper
// tier that does not stand is retried once on the source, which always
// holds the dataset.
func (m *Monarch) serve(ctx context.Context, e *fileEntry, plan readPlan, p []byte, off int64, o *outcome) {
	if plan.demote >= 0 {
		m.demote(e, plan.demote)
	}
	o.Tier, o.route, o.from = plan.level, plan.kind, plan.level
	rctx := ctx
	var ann *obs.ReadAnnotation
	if plan.kind == routePeer {
		// Backend.ReadAt has no flag channel, so the peer tier reports a
		// hedged read through a context annotation; the request ID
		// correlates this read with the serving node's span.
		rctx, ann = obs.WithReadAnnotation(ctx)
		o.Req = obs.NewRequestID()
		rctx = obs.WithRequestID(rctx, o.Req)
	}
	n, err := m.levels[plan.level].backend.ReadAt(rctx, e.name, p, off)
	if plan.level != m.source.level {
		if o.miss = m.classify(e, plan, err); o.miss != missNone {
			o.cause, o.Tier = err, m.source.level
			n, err = m.source.backend.ReadAt(ctx, e.name, p, off)
		} else if ann != nil {
			o.Flags = ann.Flags() & obs.FlagHedged
		}
	}
	o.Bytes, o.Err = int64(n), err
}

// classify judges a first attempt on an upper tier: missNone when its
// result stands, otherwise why it must be re-served from the source. A
// read whose copy generation moved cannot trust even a successful
// result — the copy may be gone or freshly zero-filled. Otherwise a
// missing copy is an eviction race only on the placed route: in-flight
// chunked placements are pinned against eviction, so a mid-copy read's
// missing copy is a real failure. Real failures feed the breaker and
// demote the entry once its tier is Down.
func (m *Monarch) classify(e *fileEntry, plan readPlan, err error) missKind {
	moved := plan.kind != routePeer && e.gen.Load() != plan.gen
	if err == nil && !moved {
		m.health.recordReadOK(plan.level)
		return missNone
	}
	notExist := errors.Is(err, storage.ErrNotExist)
	switch {
	case moved && (err == nil || notExist):
		return missEvicted
	case notExist && plan.kind == routePeer:
		return missPeer
	case notExist && plan.kind == routePlaced && m.cfg.Eviction != nil:
		return missEvicted
	}
	if !m.cfg.Disabled {
		if m.health.recordReadError(plan.level) {
			m.tierDown(plan.level, err)
		}
		if m.health.isDown(plan.level) {
			m.demote(e, plan.level)
		}
	}
	return missFailed
}

// serveView is serve's copy-free variant: a view plan lends the tier's
// bytes; any other plan, or a lend that does not stand, is served
// through the copy path into pooled scratch that Release returns.
func (m *Monarch) serveView(ctx context.Context, e *fileEntry, plan readPlan, off, n int64, o *outcome) storage.View {
	if plan.view {
		d := m.levels[plan.level]
		v, err := d.vr.ReadView(ctx, e.name, off, n)
		if err == nil && m.classify(e, plan, nil) == missNone {
			o.Tier, o.Bytes = plan.level, int64(len(v.Data))
			return v
		}
		if err == nil {
			v.Release() // lent from a copy evicted or replaced meanwhile
		} else if errors.Is(err, errors.ErrUnsupported) {
			d.viewOff.Store(true) // a wrapper claimed ViewReader its backend lacks
		}
	}
	buf := bufpool.Get(int(min(n, max(e.size-off, 0))))
	m.serve(ctx, e, plan, buf, off, o)
	if o.Err != nil {
		bufpool.Put(buf)
		return storage.View{}
	}
	return storage.PooledView(buf, int(o.Bytes))
}

// read is the pipeline behind ReadAt (into p) and ReadView (view set):
// lookup, route, serve, record, then the hooks a served read triggers —
// the §III-B placement trigger (when the read covered the whole file
// the placer may keep a copy and skip the source re-read), the eviction
// policy's access bookkeeping, and heat promotion. Under peer routing
// only owned files are cached locally.
func (m *Monarch) read(ctx context.Context, name string, p []byte, off, n int64, view bool) (storage.View, int, error) {
	start := m.now()
	o := outcome{Span: obs.Span{Kind: obs.SpanRead, File: name, Tier: -1, Off: off}}
	e, err := m.lookup(name)
	if err != nil {
		o.Err = err
		m.record(&o, m.now()-start)
		return storage.View{}, 0, err
	}
	m.tickProbes()
	plan := m.route(e, off, n)
	var v storage.View
	if view {
		v = m.serveView(ctx, e, plan, off, n, &o)
	} else {
		m.serve(ctx, e, plan, p, off, &o)
		v.Data = p[:o.Bytes]
	}
	m.record(&o, m.now()-start)
	if o.Err != nil {
		return storage.View{}, int(o.Bytes), o.Err
	}
	owned := !m.cfg.Disabled && m.owns(name)
	if owned && m.cfg.Staging == StageOnFirstRead {
		var whole []byte
		if off == 0 && int64(len(v.Data)) == e.size {
			whole = v.Data
		}
		m.placer.onAccess(e, whole)
	}
	if m.cfg.Eviction != nil {
		m.cfg.Eviction.OnAccess(name)
		if owned {
			m.maybePromote(e)
		}
	}
	return v, int(o.Bytes), nil
}

// maybePromote re-enters an unplaceable file into the placement
// pipeline. Heat-style policies (promoter) gate the revival: the file
// must have become hot enough to displace a colder resident, and
// HeatPolicy.ShouldPromote rate-limits the check to once per file per
// epoch. Plain recency policies (LRU/FIFO) revive unconditionally —
// under them an access *is* the claim to residence, and the books they
// keep lag the chunk-finalisation tasks, so a placement skipped during
// a burst must be retriable on the next touch. The placement itself
// then runs the normal admission path: if no victim still qualifies by
// the time it executes, the file simply returns to unplaceable.
func (m *Monarch) maybePromote(e *fileEntry) {
	if e.currentState() != stateUnplaceable {
		return
	}
	if pr, ok := m.cfg.Eviction.(promoter); ok && !pr.ShouldPromote(e.name) {
		return
	}
	if !e.makeReplaceable() {
		return
	}
	m.stats.promotions.Add(1)
	m.event(Event{Kind: EventPromoted, File: e.name, Level: -1, Bytes: e.size})
	m.placer.onAccess(e, nil)
}
