package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// holdPool accepts tasks and never runs them: a read's placement
// trigger still queues (and counts in flight) but nothing moves, so a
// single read's accounting can be compared exactly.
type holdPool struct{ n int }

func (p *holdPool) Submit(pool.Task) bool { p.n++; return true }
func (p *holdPool) Pending() int          { return p.n }
func (p *holdPool) Workers() int          { return 1 }
func (p *holdPool) Close()                {}
func (p *holdPool) Shutdown()             {}

// routeRig is a 3-level hierarchy [ssd, peer, pfs]: the peer level is a
// read-only MemFS standing in for sibling caches (the owner of
// remote/c has cached it, remote/d's owner has not), and Owns reports
// files not prefixed "remote/" as owned. Every file is 64 bytes.
type routeRig struct {
	ssd   *storage.MemFS
	ssdF  *storage.Faulty // wraps ssd; level 0 when faulty is set
	peer  *storage.Faulty
	m     *Monarch
	log   *EventLog
	mu    sync.Mutex
	spans []obs.Span
}

var routeFiles = []string{"local/a", "local/b", "remote/c", "remote/d"}

// hedgedPeer stands in for a peer tier that served the read under a
// hedge: it annotates the read and requires a minted request ID.
type hedgedPeer struct{ storage.Backend }

func (h hedgedPeer) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if obs.RequestIDFrom(ctx) == 0 {
		return 0, errors.New("peer read without a request ID")
	}
	obs.ReadAnnotationFrom(ctx).Annotate(obs.FlagHedged)
	return h.Backend.ReadAt(ctx, name, p, off)
}

func routeContent(name string) []byte {
	return bytes.Repeat([]byte(name[len(name)-1:]), 64)
}

func newRouteRig(t *testing.T, faulty bool, edit func(*Config)) *routeRig {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for _, name := range routeFiles {
		if err := pfs.WriteFile(ctx, name, routeContent(name)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	peerRaw := storage.NewMemFS("peers", 0)
	if err := peerRaw.WriteFile(ctx, "remote/c", routeContent("remote/c")); err != nil {
		t.Fatal(err)
	}
	peerRaw.SetReadOnly(true)
	r := &routeRig{ssd: storage.NewMemFS("ssd", 0), peer: storage.NewFaulty(peerRaw), log: NewEventLog(64)}
	r.ssdF = storage.NewFaulty(r.ssd)
	var top storage.Backend = r.ssd
	if faulty {
		top = r.ssdF
	}
	cfg := Config{
		Levels:        []storage.Backend{top, r.peer, pfs},
		Pool:          &holdPool{},
		FullFileFetch: true,
		ChunkSize:     16,
		Events:        r.log,
		Trace: func(s obs.Span) {
			r.mu.Lock()
			r.spans = append(r.spans, s)
			r.mu.Unlock()
		},
		Peer: PeerConfig{Tier: 1, Owns: func(name string) bool { return !strings.HasPrefix(name, "remote/") }},
	}
	if edit != nil {
		edit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	r.m = m
	return r
}

func (r *routeRig) entry(t *testing.T, name string) *fileEntry {
	t.Helper()
	e, ok := r.m.meta.get(name)
	if !ok {
		t.Fatalf("%s missing from namespace", name)
	}
	return e
}

// place puts a full copy of name on the ssd and marks it placed there.
func (r *routeRig) place(t *testing.T, name string) {
	t.Helper()
	if err := r.ssd.WriteFile(context.Background(), name, routeContent(name)); err != nil {
		t.Fatal(err)
	}
	r.entry(t, name).markPlaced(0)
}

// midCopy arms a chunked placement of name into the ssd with chunks
// 0 and 1 (bytes [0, 32)) landed.
func (r *routeRig) midCopy(t *testing.T, name string) {
	t.Helper()
	if err := r.ssd.WriteFile(context.Background(), name, routeContent(name)); err != nil {
		t.Fatal(err)
	}
	e := r.entry(t, name)
	if !e.tryQueue() {
		t.Fatalf("%s not queueable", name)
	}
	e.beginChunks(0, 16)
	e.markChunk(0)
	e.markChunk(1)
}

// TestRouteTable enumerates route over entry state × breaker state ×
// ownership × chunk coverage × Disabled.
func TestRouteTable(t *testing.T) {
	type state int
	const (
		source state = iota
		placed
		midCopy
		evicting
	)
	for _, tc := range []struct {
		name     string
		file     string
		state    state
		off, n   int64
		down     []int
		disabled bool
		noPeer   bool
		noChunks bool
		want     readPlan
	}{
		{name: "owned source", file: "local/a", want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "placed lends a view", file: "local/a", state: placed,
			want: readPlan{level: 0, kind: routePlaced, demote: -1, view: true}},
		{name: "placed on a down tier demotes to source", file: "local/a", state: placed, down: []int{0},
			want: readPlan{level: 2, kind: routeSource, demote: 0}},
		{name: "placed non-owned on a down tier demotes to peer", file: "remote/c", state: placed, down: []int{0},
			want: readPlan{level: 1, kind: routePeer, demote: 0}},
		{name: "mid-copy covered", file: "local/a", state: midCopy, off: 4, n: 20,
			want: readPlan{level: 0, kind: routePartial, demote: -1}},
		{name: "mid-copy not covered", file: "local/a", state: midCopy, off: 20, n: 20,
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "mid-copy covered on a down tier", file: "local/a", state: midCopy, off: 0, n: 8, down: []int{0},
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "mid-copy without chunking configured", file: "local/a", state: midCopy, off: 0, n: 8, noChunks: true,
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "non-owned mid-copy covered beats peer", file: "remote/c", state: midCopy, off: 0, n: 8,
			want: readPlan{level: 0, kind: routePartial, demote: -1}},
		{name: "non-owned mid-copy uncovered goes to peer", file: "remote/c", state: midCopy, off: 40, n: 8,
			want: readPlan{level: 1, kind: routePeer, demote: -1}},
		{name: "non-owned routes to peer", file: "remote/c", want: readPlan{level: 1, kind: routePeer, demote: -1}},
		{name: "non-owned with peer down", file: "remote/c", down: []int{1},
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "non-owned without peer routing", file: "remote/c", noPeer: true,
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "evicting owned stays on source", file: "local/a", state: evicting,
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "evicting non-owned goes to peer", file: "remote/c", state: evicting,
			want: readPlan{level: 1, kind: routePeer, demote: -1}},
		{name: "disabled source", file: "remote/c", disabled: true,
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
		{name: "disabled ignores breaker and lends no view", file: "local/a", state: placed, disabled: true, down: []int{0},
			want: readPlan{level: 0, kind: routePlaced, demote: -1}},
		{name: "disabled ignores chunks", file: "local/a", state: midCopy, off: 0, n: 8, disabled: true,
			want: readPlan{level: 2, kind: routeSource, demote: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRouteRig(t, false, func(c *Config) {
				if tc.disabled {
					c.Disabled, c.Pool = true, nil
				}
				if tc.noPeer {
					c.Peer = PeerConfig{}
				}
				if tc.noChunks {
					c.ChunkSize = 0
				}
			})
			t.Cleanup(r.m.Close)
			e := r.entry(t, tc.file)
			switch tc.state {
			case placed:
				r.place(t, tc.file)
			case midCopy:
				r.midCopy(t, tc.file)
			case evicting:
				r.place(t, tc.file)
				if !e.markEvictedFrom(0, 2) {
					t.Fatal("eviction refused")
				}
			}
			for _, lvl := range tc.down {
				r.m.health.forceDown(lvl)
			}
			got := r.m.route(e, tc.off, tc.n)
			got.gen = 0
			if got != tc.want {
				t.Fatalf("route = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestReadAtReadViewParityPerRoute drives one read down every route
// through ReadAt and, on an identically prepared instance, through
// ReadView, and requires the same bytes, Stats, registry series, read
// span and events from both.
func TestReadAtReadViewParityPerRoute(t *testing.T) {
	for _, tc := range []struct {
		name     string
		file     string
		off, n   int64
		faulty   bool
		edit     func(*Config)
		setup    func(t *testing.T, r *routeRig)
		wantTier int
		wantFlag obs.SpanFlags
		wantErr  error
		check    func(t *testing.T, s Stats)
	}{
		{name: "source queues a placement", file: "local/b", n: 64, wantTier: 2,
			check: func(t *testing.T, s Stats) {
				if s.ReadsServed[2] != 1 || s.InFlight != 1 {
					t.Errorf("source reads = %d, in flight = %d", s.ReadsServed[2], s.InFlight)
				}
			}},
		{name: "placed", file: "local/a", n: 64, wantTier: 0,
			setup: func(t *testing.T, r *routeRig) { r.place(t, "local/a") },
			check: func(t *testing.T, s Stats) {
				if s.ReadsServed[0] != 1 {
					t.Errorf("tier 0 reads = %d", s.ReadsServed[0])
				}
			}},
		{name: "partial", file: "local/a", off: 8, n: 24, wantTier: 0, wantFlag: obs.FlagPartial,
			setup: func(t *testing.T, r *routeRig) { r.midCopy(t, "local/a") },
			check: func(t *testing.T, s Stats) {
				if s.PartialHits != 1 || s.PartialHitBytes != 24 {
					t.Errorf("partial hits = %d (%d bytes)", s.PartialHits, s.PartialHitBytes)
				}
			}},
		{name: "peer hit", file: "remote/c", n: 64, wantTier: 1, wantFlag: obs.FlagPeer,
			check: func(t *testing.T, s Stats) {
				if s.PeerHits != 1 || s.PeerHitBytes != 64 {
					t.Errorf("peer hits = %d (%d bytes)", s.PeerHits, s.PeerHitBytes)
				}
			}},
		{name: "peer hit under a hedge", file: "remote/c", n: 64, wantTier: 1, wantFlag: obs.FlagPeer | obs.FlagHedged,
			edit: func(c *Config) { c.Levels[1] = hedgedPeer{c.Levels[1]} },
			check: func(t *testing.T, s Stats) {
				if s.PeerHits != 1 || s.PeerHedges != 1 {
					t.Errorf("peer hits = %d, hedges = %d", s.PeerHits, s.PeerHedges)
				}
			}},
		{name: "peer miss", file: "remote/d", n: 64, wantTier: 2, wantFlag: obs.FlagPeerMiss,
			check: func(t *testing.T, s Stats) {
				if s.PeerMisses != 1 || s.Fallbacks != 0 {
					t.Errorf("peer misses = %d, fallbacks = %d", s.PeerMisses, s.Fallbacks)
				}
			}},
		{name: "peer failure", file: "remote/c", n: 64, wantTier: 2, wantFlag: obs.FlagFallback,
			setup: func(t *testing.T, r *routeRig) { r.peer.FailNextReads(1) },
			check: func(t *testing.T, s Stats) {
				if s.Fallbacks != 1 || s.PeerHits != 0 {
					t.Errorf("fallbacks = %d, peer hits = %d", s.Fallbacks, s.PeerHits)
				}
			}},
		{name: "eviction race", file: "local/a", n: 64, wantTier: 2,
			edit: func(c *Config) { c.Eviction = NewLRU() },
			// Placed per metadata, but the tier copy is already gone.
			setup: func(t *testing.T, r *routeRig) { r.entry(t, "local/a").markPlaced(0) },
			check: func(t *testing.T, s Stats) {
				if s.EvictionRaces != 1 || s.Fallbacks != 0 {
					t.Errorf("eviction races = %d, fallbacks = %d", s.EvictionRaces, s.Fallbacks)
				}
			}},
		{name: "tier fallback", file: "local/a", n: 64, faulty: true, wantTier: 2, wantFlag: obs.FlagFallback,
			setup: func(t *testing.T, r *routeRig) {
				r.place(t, "local/a")
				r.ssdF.FailNextReads(1)
			},
			check: func(t *testing.T, s Stats) {
				if s.Fallbacks != 1 {
					t.Errorf("fallbacks = %d", s.Fallbacks)
				}
			}},
		{name: "breaker demotion", file: "local/a", n: 64, wantTier: 2,
			setup: func(t *testing.T, r *routeRig) {
				r.place(t, "local/a")
				r.m.ForceTierDown(0, errors.New("drill"))
			},
			check: func(t *testing.T, s Stats) {
				if s.Demotions != 1 || s.Fallbacks != 0 {
					t.Errorf("demotions = %d, fallbacks = %d", s.Demotions, s.Fallbacks)
				}
			}},
		{name: "disabled", file: "remote/c", n: 64, wantTier: 2,
			edit: func(c *Config) { c.Disabled, c.Pool = true, nil },
			check: func(t *testing.T, s Stats) {
				if s.PeerHits != 0 || s.ReadsServed[2] != 1 {
					t.Errorf("disabled read: peer hits %d, source reads %d", s.PeerHits, s.ReadsServed[2])
				}
			}},
		{name: "unknown file", file: "nope", n: 64, wantTier: -1, wantErr: ErrUnknownFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type result struct {
				data   []byte
				err    error
				stats  Stats
				vars   map[string]float64
				spans  []obs.Span
				events []Event
			}
			run := func(view bool) result {
				r := newRouteRig(t, tc.faulty, tc.edit)
				t.Cleanup(r.m.Close)
				if tc.setup != nil {
					tc.setup(t, r)
				}
				r.mu.Lock()
				r.spans = nil
				r.mu.Unlock()
				before := len(r.log.Events())
				var res result
				ctx := context.Background()
				if view {
					v, err := r.m.ReadView(ctx, tc.file, tc.off, tc.n)
					res.data, res.err = append([]byte(nil), v.Data...), err
					if err == nil {
						v.Release()
					}
				} else {
					buf := make([]byte, tc.n)
					n, err := r.m.ReadAt(ctx, tc.file, buf, tc.off)
					res.data, res.err = buf[:n], err
				}
				res.stats = r.m.Stats()
				res.vars = r.m.Registry().Vars()
				for k := range res.vars {
					if strings.HasSuffix(strings.SplitN(k, "{", 2)[0], "_sum") || strings.HasPrefix(k, "monarch_uptime") {
						delete(res.vars, k)
					}
				}
				r.mu.Lock()
				for _, s := range r.spans {
					if s.Kind == obs.SpanRead {
						s.Duration, s.Req = 0, 0
						res.spans = append(res.spans, s)
					}
				}
				r.mu.Unlock()
				for _, e := range r.log.Events()[before:] {
					e.Wall, e.Seq = time.Time{}, 0
					res.events = append(res.events, e)
				}
				return res
			}
			at, view := run(false), run(true)

			if !errors.Is(at.err, tc.wantErr) || !errors.Is(view.err, tc.wantErr) {
				t.Fatalf("errors: ReadAt %v, ReadView %v, want %v", at.err, view.err, tc.wantErr)
			}
			if tc.wantErr == nil {
				want := routeContent(tc.file)[tc.off : tc.off+tc.n]
				if !bytes.Equal(at.data, want) || !bytes.Equal(view.data, want) {
					t.Fatalf("bytes: ReadAt %q, ReadView %q, want %q", at.data, view.data, want)
				}
			}
			if !reflect.DeepEqual(at.stats, view.stats) {
				t.Errorf("Stats differ:\nReadAt   %+v\nReadView %+v", at.stats, view.stats)
			}
			for k, v := range at.vars {
				if view.vars[k] != v {
					t.Errorf("%s: ReadAt %v, ReadView %v", k, v, view.vars[k])
				}
			}
			if len(at.vars) != len(view.vars) {
				t.Errorf("registry series: ReadAt %d, ReadView %d", len(at.vars), len(view.vars))
			}
			if len(at.spans) != 1 || len(view.spans) != 1 {
				t.Fatalf("read spans: ReadAt %d, ReadView %d, want 1 each", len(at.spans), len(view.spans))
			}
			as, vs := at.spans[0], view.spans[0]
			if as.Err != nil && vs.Err != nil {
				as.Err, vs.Err = nil, nil
			}
			if as != vs {
				t.Errorf("spans differ:\nReadAt   %+v\nReadView %+v", as, vs)
			}
			if as.Tier != tc.wantTier || as.Flags != tc.wantFlag {
				t.Errorf("span tier %d flags %b, want tier %d flags %b", as.Tier, as.Flags, tc.wantTier, tc.wantFlag)
			}
			if len(at.events) != len(view.events) {
				t.Fatalf("events: ReadAt %v, ReadView %v", at.events, view.events)
			}
			for i := range at.events {
				a, v := at.events[i], view.events[i]
				if a.Kind != v.Kind || a.File != v.File || a.Level != v.Level || a.Bytes != v.Bytes || (a.Err == nil) != (v.Err == nil) {
					t.Errorf("event %d: ReadAt %v, ReadView %v", i, a, v)
				}
			}
			if tc.check != nil {
				tc.check(t, at.stats)
			}
		})
	}
}

// TestMovedCopyIsReservedFromSource: a read routed to a tier copy whose
// generation moves before the read returns (an eviction, or a fresh
// zero-filled chunked allocation) must not trust what it read, even a
// successful read or lend: it is re-served from the source as an
// eviction race.
func TestMovedCopyIsReservedFromSource(t *testing.T) {
	ctx := context.Background()
	for _, view := range []bool{false, true} {
		r := newRouteRig(t, false, nil)
		t.Cleanup(r.m.Close)
		r.place(t, "local/a")
		e := r.entry(t, "local/a")
		plan := r.m.route(e, 0, 64)
		if !plan.view || plan.level != 0 {
			t.Fatalf("plan = %+v, want a view plan on tier 0", plan)
		}
		// A fresh allocation replaces the routed copy with zeros.
		e.gen.Add(1)
		if err := r.ssd.WriteFile(ctx, "local/a", make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		o := outcome{Span: obs.Span{Kind: obs.SpanRead, File: "local/a"}}
		var got []byte
		if view {
			v := r.m.serveView(ctx, e, plan, 0, 64, &o)
			got = append(got, v.Data...)
			v.Release()
		} else {
			got = make([]byte, 64)
			r.m.serve(ctx, e, plan, got, 0, &o)
		}
		if o.Err != nil || o.miss != missEvicted || o.Tier != 2 {
			t.Fatalf("view=%v: outcome err %v miss %d tier %d, want an eviction race served from 2", view, o.Err, o.miss, o.Tier)
		}
		if !bytes.Equal(got, routeContent("local/a")) {
			t.Fatalf("view=%v: read %q from a moved copy", view, got)
		}
	}
}

// TestReadViewUnsupportedWrapperFallsBackToCopy: a wrapper that claims
// ViewReader over a backend without it answers ErrUnsupported once; the
// driver stops asking and the same plan is served through the copy path.
func TestReadViewUnsupportedWrapperFallsBackToCopy(t *testing.T) {
	r := newRouteRig(t, false, func(c *Config) {
		c.Levels[0] = storage.NewCounting(storage.NewFaulty(c.Levels[0]))
	})
	t.Cleanup(r.m.Close)
	r.place(t, "local/a")
	for i := 0; i < 2; i++ {
		v, err := r.m.ReadView(context.Background(), "local/a", 0, 64)
		if err != nil || !bytes.Equal(v.Data, routeContent("local/a")) {
			t.Fatalf("read %d: %q, %v", i, v.Data, err)
		}
		v.Release()
	}
	if !r.m.levels[0].viewOff.Load() {
		t.Fatal("driver still asks a view-less wrapper for views")
	}
	if s := r.m.Stats(); s.ReadsServed[0] != 2 || s.Fallbacks != 0 {
		t.Fatalf("tier 0 reads = %d, fallbacks = %d", s.ReadsServed[0], s.Fallbacks)
	}
	if _, err := r.m.ReadView(context.Background(), "local/a", 0, -1); err == nil {
		t.Fatal("negative view length accepted")
	}
}

// TestWholeFileReadOfPlacedFileAllocatesNothing: a read covering a
// whole file hands its bytes to the placer only while the file can
// still be queued, so re-reading an already placed file never copies.
func TestWholeFileReadOfPlacedFileAllocatesNothing(t *testing.T) {
	const size = 1 << 20
	f := newFixture(t, 0, 1, size, nil)
	ctx := context.Background()
	buf := make([]byte, size)
	if _, err := f.m.ReadAt(ctx, "f000", buf, 0); err != nil {
		t.Fatal(err)
	}
	f.waitIdle(t)
	if lvl, _ := f.m.LevelOf("f000"); lvl != 0 {
		t.Fatalf("f000 at level %d, want placed on 0", lvl)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.m.ReadAt(ctx, "f000", buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("whole-file ReadAt of a placed file: %v allocs/op, want 0", allocs)
	}
}
