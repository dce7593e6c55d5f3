package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// newWriteFixture builds a 2-level hierarchy with a WRITABLE PFS (the
// write path needs the source to accept flushes and recovery) and the
// write subsystem enabled.
type writeFixture struct {
	tier0 *storage.MemFS
	pfs   *storage.MemFS
	m     *Monarch
}

func newWriteFixture(t *testing.T, nfiles int, cfgEdit func(*Config)) *writeFixture {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("data/f%03d", i), bytes.Repeat([]byte{byte(i + 1)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	tier0 := storage.NewMemFS("ssd", 1<<30)
	cfg := Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(4),
		FullFileFetch: true,
		Write:         WriteConfig{Enabled: true},
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return &writeFixture{tier0: tier0, pfs: pfs, m: m}
}

func backAll(string) Durability { return WriteBack }

func TestWritesDisabled(t *testing.T) {
	f := newFixture(t, 1<<20, 1, 64, nil)
	ctx := context.Background()
	if err := f.m.Create(ctx, "c", 10); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("Create without Write config: %v", err)
	}
	if _, err := f.m.WriteAt(ctx, "c", []byte("x"), 0); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("WriteAt without Write config: %v", err)
	}
	if err := f.m.Remove(ctx, "c"); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("Remove without Write config: %v", err)
	}
}

func TestWriteThrough(t *testing.T) {
	f := newWriteFixture(t, 2, nil)
	ctx := context.Background()
	const name = "ckpt/epoch-1"
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	if err := f.m.Create(ctx, name, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if n, err := f.m.WriteAt(ctx, name, payload, 0); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	// Write-through: the PFS has the bytes before the ack.
	got, err := f.pfs.ReadFile(ctx, name)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("PFS content mismatch after write-through: %v", err)
	}
	// The file reads back through the middleware.
	buf := make([]byte, len(payload))
	if n, err := f.m.ReadAt(ctx, name, buf, 0); err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("ReadAt after write: %d, %v", n, err)
	}
	s := f.m.Stats()
	if s.Creates != 1 || s.Writes != 1 || s.WriteBacks != 0 || s.WrittenBytes != int64(len(payload)) {
		t.Fatalf("stats after write-through: %+v", s)
	}
	if s.DirtyBytes != 0 {
		t.Fatalf("write-through left %d dirty bytes", s.DirtyBytes)
	}
}

func TestWriteBackAcksOnTier0ThenFlushes(t *testing.T) {
	f := newWriteFixture(t, 2, func(c *Config) {
		c.Write.Durability = backAll
	})
	ctx := context.Background()
	const name = "ckpt/shard-0"
	payload := bytes.Repeat([]byte{0xEE}, 8192)
	if err := f.m.Create(ctx, name, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.WriteAt(ctx, name, payload, 0); err != nil {
		t.Fatal(err)
	}
	// The ack landed on tier 0.
	if got, err := f.tier0.ReadFile(ctx, name); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("tier-0 content after write-back ack: %v", err)
	}
	if err := f.m.Flush(ctx, name); err != nil {
		t.Fatal(err)
	}
	if got, err := f.pfs.ReadFile(ctx, name); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("PFS content after flush: %v", err)
	}
	s := f.m.Stats()
	if s.WriteBacks != 1 || s.Flushes == 0 || s.DirtyBytes != 0 {
		t.Fatalf("stats after flush: WriteBacks=%d Flushes=%d Dirty=%d", s.WriteBacks, s.Flushes, s.DirtyBytes)
	}
	// Reads of the write-back file serve from tier 0.
	if lvl, err := f.m.LevelOf(name); err != nil || lvl != 0 {
		t.Fatalf("LevelOf(%s) = %d, %v; want tier 0", name, lvl, err)
	}
}

// TestWriteBackFailuresAreRecorded: a write-back write that fails on
// tier 0 or in the journal is charged to its error stages, spans the
// failure and leaves no dirty bytes behind.
func TestWriteBackFailuresAreRecorded(t *testing.T) {
	var tier0 *storage.Faulty
	var spans []obs.Span
	var mu sync.Mutex
	f := newWriteFixture(t, 1, func(c *Config) {
		tier0 = storage.NewFaulty(c.Levels[0])
		c.Levels[0] = tier0
		c.Write.Durability = backAll
		c.Write.JournalPath = filepath.Join(t.TempDir(), "wal")
		c.Trace = func(s obs.Span) {
			mu.Lock()
			spans = append(spans, s)
			mu.Unlock()
		}
	})
	ctx := context.Background()
	if err := f.m.Create(ctx, "ckpt", 64); err != nil {
		t.Fatal(err)
	}
	tier0.FailNextWrites(1)
	if _, err := f.m.WriteAt(ctx, "ckpt", make([]byte, 64), 0); err == nil {
		t.Fatal("write-back over a failing tier 0 acked")
	}
	f.m.writes.jn.Close()
	if _, err := f.m.WriteAt(ctx, "ckpt", make([]byte, 64), 0); err == nil {
		t.Fatal("write-back with a closed journal acked")
	}
	vars := f.m.Registry().Vars()
	if w, j := vars[`monarch_errors_total{stage="write"}`], vars[`monarch_errors_total{stage="journal"}`]; w != 2 || j != 1 {
		t.Fatalf("error stages: write %v journal %v, want 2 and 1", w, j)
	}
	if s := f.m.Stats(); s.Writes != 0 || s.DirtyBytes != 0 || f.m.DirtyBytes() != 0 {
		t.Fatalf("failed writes left writes=%d dirty=%d", s.Writes, s.DirtyBytes)
	}
	mu.Lock()
	defer mu.Unlock()
	var failed int
	for _, s := range spans {
		if s.Kind == obs.SpanWrite && s.Err != nil && s.Flags&obs.FlagWriteBack != 0 && s.Tier == 0 && s.Bytes == 0 {
			failed++
		}
	}
	if failed != 2 {
		t.Fatalf("%d failed write-back spans, want 2", failed)
	}
}

func TestWriteValidation(t *testing.T) {
	f := newWriteFixture(t, 2, nil)
	ctx := context.Background()
	if err := f.m.Create(ctx, "", 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := f.m.Create(ctx, "x", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	// A dataset name must not be shadowed.
	if err := f.m.Create(ctx, "data/f000", 10); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("Create over dataset file: %v", err)
	}
	if err := f.m.Create(ctx, "w", 16); err != nil {
		t.Fatal(err)
	}
	// Double create collides.
	if err := f.m.Create(ctx, "w", 16); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("double Create: %v", err)
	}
	// Out-of-bounds writes are rejected.
	if _, err := f.m.WriteAt(ctx, "w", make([]byte, 8), 12); err == nil {
		t.Fatal("write past EOF accepted")
	}
	if _, err := f.m.WriteAt(ctx, "w", []byte("x"), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	// Dataset files are not writable.
	if _, err := f.m.WriteAt(ctx, "data/f000", []byte("x"), 0); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("WriteAt on dataset file: %v", err)
	}
	if err := f.m.Remove(ctx, "data/f000"); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("Remove on dataset file: %v", err)
	}
	// Zero-length writes are a no-op.
	if n, err := f.m.WriteAt(ctx, "w", nil, 0); n != 0 || err != nil {
		t.Fatalf("zero-length write: %d, %v", n, err)
	}
}

func TestRemoveWritableFile(t *testing.T) {
	f := newWriteFixture(t, 1, func(c *Config) {
		c.Write.Durability = backAll
	})
	ctx := context.Background()
	const name = "ckpt/tmp"
	if err := f.m.Create(ctx, name, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.WriteAt(ctx, name, bytes.Repeat([]byte{1}, 32), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Flush(ctx, name); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Remove(ctx, name); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tier0.Stat(ctx, name); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("tier-0 copy survived Remove: %v", err)
	}
	if _, err := f.pfs.Stat(ctx, name); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("PFS copy survived Remove: %v", err)
	}
	if _, err := f.m.Stat(name); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("namespace entry survived Remove: %v", err)
	}
	// The name is reusable.
	if err := f.m.Create(ctx, name, 8); err != nil {
		t.Fatalf("re-Create after Remove: %v", err)
	}
	if f.m.Stats().Removes != 1 {
		t.Fatalf("Removes = %d", f.m.Stats().Removes)
	}
}

// gatedBackend wraps a PFS so tests can control flush fate: WriteFile
// blocks until release() (pinning dirty bytes deterministically) or
// fails outright after breakPFS() (the crash-test shape: acked bytes
// must survive on the journal alone, never reaching the PFS).
type gatedBackend struct {
	storage.Backend
	gate    chan struct{}
	fail    chan struct{}
	blocked chan struct{} // closed once the first WriteFile is waiting
	once    sync.Once
}

func newGatedBackend(b storage.Backend) *gatedBackend {
	return &gatedBackend{
		Backend: b,
		gate:    make(chan struct{}),
		fail:    make(chan struct{}),
		blocked: make(chan struct{}),
	}
}

func (g *gatedBackend) WriteFile(ctx context.Context, name string, data []byte) error {
	g.once.Do(func() { close(g.blocked) })
	select {
	case <-g.gate:
	case <-g.fail:
		return errors.New("gated: PFS unavailable")
	}
	return g.Backend.WriteFile(ctx, name, data)
}

func (g *gatedBackend) release()  { close(g.gate) }
func (g *gatedBackend) breakPFS() { close(g.fail) }

// Allocate/WriteAt pass through so the wrapper still satisfies
// storage.RangeWriter (recovery and write-through need it).
func (g *gatedBackend) Allocate(ctx context.Context, name string, size int64) error {
	return g.Backend.(storage.RangeWriter).Allocate(ctx, name, size)
}

func (g *gatedBackend) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return g.Backend.(storage.RangeWriter).WriteAt(ctx, name, p, off)
}

func TestDirtyBudgetStallsWriters(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	pfs := newGatedBackend(pfsRaw)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Write: WriteConfig{
			Enabled:     true,
			Durability:  backAll,
			DirtyBudget: 1024, // one 1 KiB write fills it
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Create(ctx, "w", 4096); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{9}, 1024)
	if _, err := m.WriteAt(ctx, "w", chunk, 0); err != nil {
		t.Fatal(err)
	}
	// The flusher is now stuck in the gated WriteFile with the budget
	// full; the next write must stall until we release the gate.
	<-pfs.blocked
	done := make(chan error, 1)
	go func() {
		_, werr := m.WriteAt(ctx, "w", chunk, 1024)
		done <- werr
	}()
	select {
	case err := <-done:
		t.Fatalf("second write did not stall (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	pfs.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stalled write failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write never completed")
	}
	if err := m.Flush(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.WriteStalls == 0 {
		t.Fatalf("WriteStalls = %d, want > 0", s.WriteStalls)
	}
}

func TestBurstGatePausesPlacement(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 2048)); err != nil {
		t.Fatal(err)
	}
	pfs := newGatedBackend(pfsRaw)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Write: WriteConfig{
			Enabled:    true,
			Durability: backAll,
			BurstIdle:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Create(ctx, "ckpt", 1024); err != nil {
		t.Fatal(err)
	}
	// Dirty bytes pinned by the gated flush hold the burst gate open.
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{7}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	<-pfs.blocked
	if !m.WriteBurstActive() {
		t.Fatal("burst not active with dirty bytes outstanding")
	}
	// Trigger a placement; it must pause while the burst is active.
	buf := make([]byte, 16)
	if _, err := m.ReadAt(ctx, "data/a", buf, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := m.Stats().Placements; got != 0 {
		t.Fatalf("placement landed during burst (%d)", got)
	}
	pfs.release()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Placements == 0 {
		if time.Now().After(deadline) {
			t.Fatal("placement never resumed after burst drained")
		}
		time.Sleep(time.Millisecond)
	}
	if m.Stats().PlacementPauses == 0 {
		t.Fatal("no placement pause recorded")
	}
}

// journalOp is one mutation the crash harness both issues against the
// write-back instance and replays against a reference PFS.
type journalOp struct {
	alloc bool
	name  string
	size  int64
	off   int64
	data  []byte
}

// TestJournalRecovery is the core-level crash harness: a write-back
// burst is journaled while the PFS is unreachable (every flush fails),
// then the process "dies" via Shutdown — no drain, tier 0 discarded.
// A fresh instance over the same PFS and journal must recover every
// acked byte, byte-identical to what a direct write-through run
// produces. The journal is then additionally truncated at every
// record boundary, asserting replay applies exactly the surviving
// prefix — no acked-write loss before the cut, no torn state after.
func TestJournalRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "write.journal")

	ops := []journalOp{
		{alloc: true, name: "ckpt/s0", size: 1024},
		{alloc: true, name: "ckpt/s1", size: 512},
		{name: "ckpt/s0", off: 0, data: bytes.Repeat([]byte{0xA0}, 1000)},
		{name: "ckpt/s1", off: 0, data: bytes.Repeat([]byte{0xB1}, 300)},
		{name: "ckpt/s0", off: 1000, data: bytes.Repeat([]byte{0xA2}, 24)},
		{name: "ckpt/s1", off: 300, data: bytes.Repeat([]byte{0xB3}, 212)},
		{name: "ckpt/s0", off: 512, data: bytes.Repeat([]byte{0xA4}, 100)}, // overwrite mid-file
	}
	applyRef := func(ref *storage.MemFS, n int) {
		t.Helper()
		for _, o := range ops[:n] {
			if o.alloc {
				if err := ref.Allocate(ctx, o.name, o.size); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := ref.WriteAt(ctx, o.name, o.data, o.off); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reference: the same ops written straight through to a bare PFS.
	ref := storage.NewMemFS("ref", 0)
	applyRef(ref, len(ops))
	want := map[string][]byte{}
	for _, name := range []string{"ckpt/s0", "ckpt/s1"} {
		data, err := ref.ReadFile(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}

	build := func(src storage.Backend) *Monarch {
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), src},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Write: WriteConfig{
				Enabled:     true,
				Durability:  backAll,
				JournalPath: jpath,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		return m
	}
	seed := func() *storage.MemFS {
		pfs := storage.NewMemFS("lustre", 0)
		if err := pfs.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
		return pfs
	}

	// Crash run: flushes fail (PFS "down"), so durability rests on the
	// journal alone.
	pfs := seed()
	gated := newGatedBackend(pfs)
	gated.breakPFS()
	m1 := build(gated)
	// boundaries[i] = journal size after i acked ops: the record edges
	// the truncation sweep cuts at.
	boundaries := []int64{m1.writes.jn.Stats().Size}
	for _, o := range ops {
		if o.alloc {
			if err := m1.Create(ctx, o.name, o.size); err != nil {
				t.Fatal(err)
			}
		} else if _, err := m1.WriteAt(ctx, o.name, o.data, o.off); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, m1.writes.jn.Stats().Size)
	}
	m1.Shutdown() // kill -9: no flush, no drain, journal sealed as-is
	if _, err := pfs.Stat(ctx, "ckpt/s0"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("PFS saw checkpoint bytes before the crash: %v", err)
	}
	blob, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	// Full-journal recovery: byte-identical to the write-through run.
	m2 := build(pfs)
	for name, data := range want {
		got, err := pfs.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("recovered %s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("recovered %s differs from write-through reference", name)
		}
		// Recovered files are normal namespace entries.
		if _, err := m2.Stat(name); err != nil {
			t.Fatalf("recovered %s missing from namespace: %v", name, err)
		}
	}
	if s := m2.Stats(); s.RecoveredFiles != 2 {
		t.Fatalf("RecoveredFiles = %d, want 2", s.RecoveredFiles)
	}
	m2.Close()

	// Truncation sweep: cut the journal at every acked-op boundary and
	// assert recovery applies exactly that prefix.
	for cut := 0; cut < len(boundaries); cut++ {
		pfsN := seed()
		if err := os.WriteFile(jpath, blob[:boundaries[cut]], 0o644); err != nil {
			t.Fatal(err)
		}
		mN := build(pfsN)
		refN := storage.NewMemFS("ref", 0)
		applyRef(refN, cut)
		infos, err := refN.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			gotData, err := pfsN.ReadFile(ctx, fi.Name)
			if err != nil {
				t.Fatalf("cut %d: recovered %s: %v", cut, fi.Name, err)
			}
			refData, _ := refN.ReadFile(ctx, fi.Name)
			if !bytes.Equal(gotData, refData) {
				t.Fatalf("cut %d: %s differs from prefix replay", cut, fi.Name)
			}
		}
		if cut == 0 {
			if _, err := pfsN.Stat(ctx, "ckpt/s0"); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("cut 0: phantom file recovered from empty journal: %v", err)
			}
		}
		mN.Close()
	}
}

// TestJournalRemoveRecovery: a journaled Remove voids the file's
// pending records; recovery must not resurrect it.
func TestJournalRemoveRecovery(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "write.journal")
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "data/a", []byte("dataset")); err != nil {
		t.Fatal(err)
	}
	gated := newGatedBackend(pfs)
	gated.breakPFS()
	build := func(src storage.Backend) *Monarch {
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), src},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Write:         WriteConfig{Enabled: true, Durability: backAll, JournalPath: jpath},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := build(gated)
	if err := m1.Create(ctx, "tmp", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.WriteAt(ctx, "tmp", bytes.Repeat([]byte{5}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := m1.Remove(ctx, "tmp"); err != nil {
		t.Fatal(err)
	}
	m1.Shutdown()

	m2 := build(pfs)
	defer m2.Close()
	if _, err := pfs.Stat(ctx, "tmp"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("removed file resurrected by recovery: %v", err)
	}
	if _, err := m2.Stat("tmp"); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("removed file in recovered namespace: %v", err)
	}
}

// TestHeatPersistence (satellite): heat-policy state survives a
// graceful stop/reopen through the journal — the reopened instance
// picks the identical eviction victim.
func TestHeatPersistence(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "write.journal")
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < 4; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("data/f%d", i), bytes.Repeat([]byte{byte(i + 1)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	build := func(hp *HeatPolicy) *Monarch {
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), pfs},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Eviction:      hp,
			Write:         WriteConfig{Enabled: true, JournalPath: jpath},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		return m
	}
	hp1 := NewHeatPolicy(HeatConfig{HalfLifeEpochs: 2})
	m1 := build(hp1)
	// Skewed access pattern: f0 hottest, f3 coldest.
	buf := make([]byte, 8)
	reads := map[string]int{"data/f0": 9, "data/f1": 5, "data/f2": 3, "data/f3": 1}
	for name, n := range reads {
		for i := 0; i < n; i++ {
			if _, err := m1.ReadAt(ctx, name, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	m1.MarkEpoch(1)
	wantEpoch := hp1.Epoch()
	wantHeat := map[string]float64{}
	for name := range reads {
		wantHeat[name] = hp1.Heat(name)
	}
	m1.Close() // graceful: persists the heat snapshot into the journal

	hp2 := NewHeatPolicy(HeatConfig{HalfLifeEpochs: 2})
	m2 := build(hp2)
	defer m2.Close()
	if hp2.Epoch() != wantEpoch {
		t.Fatalf("restored epoch %d, want %d", hp2.Epoch(), wantEpoch)
	}
	for name, want := range wantHeat {
		if got := hp2.Heat(name); got != want {
			t.Fatalf("restored heat of %s = %v, want %v", name, got, want)
		}
	}
	// Identical victim choices: rebuild the placed books (a restart
	// re-places files) and contest the two policies.
	for _, hp := range []*HeatPolicy{hp1, hp2} {
		for name := range reads {
			hp.OnPlaced(name, 0)
		}
	}
	v1, ok1 := hp1.Victim(0)
	v2, ok2 := hp2.Victim(0)
	if !ok1 || !ok2 || v1 != v2 {
		t.Fatalf("victim diverged after restart: (%q,%v) vs (%q,%v)", v1, ok1, v2, ok2)
	}
	if v2 != "data/f3" {
		t.Fatalf("victim = %q, want the coldest data/f3", v2)
	}
}

// TestWritableFilesNeverEvicted: the eviction guard treats writable
// files as off-limits even when the policy's books propose them.
func TestWritableFilesNeverEvicted(t *testing.T) {
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 600)); err != nil {
		t.Fatal(err)
	}
	lru := NewLRU()
	tier0 := storage.NewMemFS("ssd", 1024)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Eviction:      lru,
		Write:         WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// A writable file occupies most of tier 0.
	if err := m.Create(ctx, "ckpt", 600); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{2}, 600), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx, "ckpt"); err != nil {
		t.Fatal(err)
	}
	// Poison the policy books: pretend ckpt is a placed resident, so it
	// is the only victim the policy can propose.
	lru.OnPlaced("ckpt", 0)
	// data/a (600 B) cannot fit beside ckpt (600 B) in 1024 B; the only
	// proposable victim is ckpt, which the guard must refuse.
	buf := make([]byte, 16)
	if _, err := m.ReadAt(ctx, "data/a", buf, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placement did not settle")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := tier0.Stat(ctx, "ckpt"); err != nil {
		t.Fatalf("writable file evicted from tier 0: %v", err)
	}
	if got, err := tier0.ReadFile(ctx, "ckpt"); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{2}, 600)) {
		t.Fatalf("writable tier-0 content corrupted: %v", err)
	}
}
