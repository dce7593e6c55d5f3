package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"monarch/internal/core"
	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// freeCost is a cost model that charges nothing, so tests run at disk
// speed through the same pacing code.
var freeCost = costModel{channels: 4, slots: 1, metaSlots: 1, readBW: 1e15, writeBW: 1e15}

// inlinePool runs each task on the submitting goroutine, which makes
// placement, and so every route count, deterministic.
type inlinePool struct{}

func (inlinePool) Submit(t pool.Task) bool { t(context.Background()); return true }
func (inlinePool) Pending() int            { return 0 }
func (inlinePool) Workers() int            { return 1 }
func (inlinePool) Close()                  {}
func (inlinePool) Shutdown()               {}
func (inlinePool) Stats() pool.Stats       { return pool.Stats{Workers: 1} }

func newOSFS(t *testing.T, dir string, capacity int64) *storage.OSFS {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewOSFS(filepath.Base(dir), dir, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

type capabilities struct{ view, rng, ping, copier, introspect bool }

func capsOf(v any) capabilities {
	_, view := v.(storage.ViewReader)
	_, rng := v.(storage.RangeWriter)
	_, ping := v.(storage.Pinger)
	_, copier := v.(storage.Copier)
	_, introspect := v.(pool.Introspector)
	return capabilities{view, rng, ping, copier, introspect}
}

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	dir := t.TempDir()
	rec := newRecorder()
	tier := newOSFS(t, filepath.Join(dir, "tier0"), 0)
	pfs := newPacedFS(newOSFS(t, filepath.Join(dir, "pfs"), 0), freeCost)
	ring, err := peernet.NewRing([]string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := peernet.NewClient(peernet.ClientConfig{Dial: func(context.Context) (net.Conn, error) { return nil, os.ErrClosed }})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := peernet.NewTier("peers", "a", ring, map[string]*peernet.Client{"b": c})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for _, b := range []storage.Backend{tier, pfs, peer} {
		w, err := wrapBackend(b, rec, lTier0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capsOf(w), capsOf(b); got != want {
			t.Errorf("%s: wrapped capabilities %+v, unwrapped %+v", b.Name(), got, want)
		}
	}
	gp := pool.NewGoPool(1)
	defer gp.Close()
	if got, want := capsOf(wrapPool(gp, rec)), capsOf(gp); got != want {
		t.Errorf("pool: wrapped capabilities %+v, unwrapped %+v", got, want)
	}
}

// routes runs two epochs with one loader and returns core's counters.
func routes(t *testing.T, traced, view bool, quota float64) core.Stats {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	fx, err := makeFixture(ctx, filepath.Join(dir, "pfs"), 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	pfsB, err := wrapBackend(newPacedFS(newOSFS(t, fx.dir, 0), freeCost), rec, lPFS)
	if err != nil {
		t.Fatal(err)
	}
	tierB, err := wrapBackend(newOSFS(t, filepath.Join(dir, "tier0"), int64(quota*float64(fx.bytes))), rec, lTier0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{Levels: []storage.Backend{tierB, pfsB}, Pool: wrapPool(inlinePool{}, rec), FullFileFetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	l := newLoader(m, rec, view)
	for e := range 2 {
		epoch(ctx, []*loader{l}, fx, shuffle(7, 0, e, 0, len(fx.shards)))
	}
	if l.failed > 0 {
		t.Fatalf("%d of %d checks failed", l.failed, l.attempted)
	}
	return m.Stats()
}

func TestTracingLeavesRoutesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		view  bool
		quota float64
	}{{"fit-readview", true, 2}, {"overflow-readat", false, 0.45}} {
		t.Run(tc.name, func(t *testing.T) {
			off, on := routes(t, false, tc.view, tc.quota), routes(t, true, tc.view, tc.quota)
			pick := func(s core.Stats) []int64 {
				return append(append([]int64{}, s.ReadsServed...), s.PartialHits, s.PeerHits, s.PeerMisses,
					s.Fallbacks, s.Placements, s.PlacementSkips, s.FullReadReuses)
			}
			if !reflect.DeepEqual(pick(off), pick(on)) {
				t.Errorf("route counts untraced %v, traced %v", pick(off), pick(on))
			}
			if off.ReadsServed[0] == 0 || off.ReadsServed[1] == 0 {
				t.Errorf("expected reads on both tiers, got %v", off.ReadsServed)
			}
		})
	}
}

func TestCorruptShardFails(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fx, err := makeFixture(ctx, filepath.Join(dir, "pfs"), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.corrupt(3); err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{
		Levels:        []storage.Backend{newOSFS(t, filepath.Join(dir, "tier0"), 0), newPacedFS(newOSFS(t, fx.dir, 0), freeCost)},
		Pool:          inlinePool{},
		FullFileFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	l := newLoader(m, nil, false)
	epoch(ctx, []*loader{l}, fx, shuffle(3, 0, 0, 0, len(fx.shards)))
	if l.failed == 0 {
		t.Fatal("a corrupted shard byte went unnoticed")
	}
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		ctx := context.Background()
		dir := t.TempDir()
		pfsDir := filepath.Join(dir, "pfs")
		m, err := core.New(core.Config{
			Levels:        []storage.Backend{newOSFS(t, filepath.Join(dir, "tier0"), 0), newPacedFS(newOSFS(t, pfsDir, 0), freeCost)},
			Pool:          inlinePool{},
			FullFileFetch: true,
			Write: core.WriteConfig{
				Enabled:     true,
				Durability:  func(string) core.Durability { return core.WriteBack },
				JournalPath: filepath.Join(dir, "journal.wal"),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		w := newCkptWriter(m, nil, pfsDir, 5, corrupt)
		w.burst(ctx, 0)
		w.burst(ctx, 1)
		m.Close()
		if got := w.failed > 0; got != corrupt {
			t.Errorf("corrupt=%v: %d of %d checks failed", corrupt, w.failed, w.attempted)
		}
		if len(w.acks) != 2*ckptShards*ckptShardBytes/preadSize {
			t.Errorf("corrupt=%v: %d acks", corrupt, len(w.acks))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: kCoreRead, start: 0, end: 100},
		{kind: kStorage, parent: 1, start: 10, end: 70},
		{kind: kStorage, parent: 1, start: 75, end: 95},
	}
	x := indexSpans(spans)
	if got := x.self(0); got != 20 {
		t.Errorf("self time %d, want 20", got)
	}
	if got := x.self(1); got != 60 {
		t.Errorf("leaf self time %d, want 60", got)
	}
}
