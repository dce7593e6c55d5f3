package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/storage"
)

// FuzzMetaOracle replays an arbitrary op tape against the sharded
// metadataContainer and a plain-map oracle whose entries are driven
// through identical fileEntry transitions. Lookups, counts, sorted
// listings and the lock-free packed snapshots must agree after every
// step — sharding must be observationally indistinguishable from one
// map, and a snapshot must never lag the mutex-guarded truth once the
// mutator has returned.
func FuzzMetaOracle(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(70), []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	f.Add(uint8(130), []byte{5, 9, 6, 9, 7, 9, 8, 9, 9, 9})
	f.Add(uint8(64), []byte{1, 0, 3, 5, 2, 0, 1, 1, 10, 200})
	f.Add(uint8(2), []byte{2, 3, 3, 0, 3, 1, 3, 2, 10, 100, 1, 0})
	f.Fuzz(func(t *testing.T, nFiles uint8, tape []byte) {
		const levels = 3
		nf := 1 + int(nFiles)%130 // crosses the shard count (64)
		infos := make([]storage.FileInfo, nf)
		for i := range infos {
			infos[i] = storage.FileInfo{Name: fmt.Sprintf("f%03d", i), Size: int64(i) * 17}
		}
		c := newMetadataContainer(levels)
		c.populate(infos, levels-1)
		oracle := make(map[string]*fileEntry, nf)
		for _, fi := range infos {
			e := &fileEntry{name: fi.Name, size: fi.Size, level: levels - 1}
			e.publish()
			oracle[fi.Name] = e
		}
		if c.len() != len(oracle) {
			t.Fatalf("len = %d, oracle %d", c.len(), len(oracle))
		}
		// Re-populating existing names must not double count.
		c.populate(infos[:1], levels-1)
		if c.len() != len(oracle) {
			t.Fatalf("len = %d after re-populate, oracle %d", c.len(), len(oracle))
		}

		check := func(step int, ce, oe *fileEntry) {
			t.Helper()
			st, lvl, armed := ce.snapshot()
			ost, olvl, oarmed := oe.snapshot()
			if st != ost || lvl != olvl || armed != oarmed {
				t.Fatalf("step %d: snapshot (%d,%d,%v) != oracle (%d,%d,%v)",
					step, st, lvl, armed, ost, olvl, oarmed)
			}
			ce.mu.Lock()
			mst, mlvl, marmed := ce.state, ce.level, ce.chunkBits != nil
			ce.mu.Unlock()
			if st != mst || lvl != mlvl || armed != marmed {
				t.Fatalf("step %d: snapshot (%d,%d,%v) lags locked truth (%d,%d,%v)",
					step, st, lvl, armed, mst, mlvl, marmed)
			}
		}

		for pc := 0; pc+1 < len(tape); pc += 2 {
			op, arg := tape[pc], int64(tape[pc+1])
			name := fmt.Sprintf("f%03d", int(arg)%nf)
			ce, ok := c.get(name)
			oe, ook := oracle[name]
			if ok != ook {
				t.Fatalf("get(%q) = %v, oracle %v", name, ok, ook)
			}
			if !ok {
				t.Fatalf("populated entry %q missing", name)
			}
			switch op % 13 {
			case 0:
				if g, w := ce.tryQueue(), oe.tryQueue(); g != w {
					t.Fatalf("tryQueue = %v, oracle %v", g, w)
				}
			case 1:
				ce.markPlaced(int(arg) % levels)
				oe.markPlaced(int(arg) % levels)
			case 2:
				ce.beginChunks(0, arg%7)
				oe.beginChunks(0, arg%7)
			case 3:
				if g, w := ce.markChunk(int(arg)), oe.markChunk(int(arg)); g != w {
					t.Fatalf("markChunk(%d) = %v, oracle %v", arg, g, w)
				}
			case 4:
				ce.clearChunks()
				oe.clearChunks()
			case 5:
				ce.markUnplaceable()
				oe.markUnplaceable()
			case 6:
				ce.markEvicted(levels - 1)
				oe.markEvicted(levels - 1)
			case 7:
				if g, w := ce.markDemoted(int(arg)%levels, levels-1), oe.markDemoted(int(arg)%levels, levels-1); g != w {
					t.Fatalf("markDemoted = %v, oracle %v", g, w)
				}
			case 8:
				ce.cancelQueued()
				oe.cancelQueued()
			case 9:
				if g, w := ce.makeReplaceable(), oe.makeReplaceable(); g != w {
					t.Fatalf("makeReplaceable = %v, oracle %v", g, w)
				}
			case 10:
				glvl, gcov := ce.chunksCover(arg, arg%97)
				wlvl, wcov := oe.chunksCover(arg, arg%97)
				if glvl != wlvl || gcov != wcov {
					t.Fatalf("chunksCover(%d) = (%d,%v), oracle (%d,%v)", arg, glvl, gcov, wlvl, wcov)
				}
			case 11:
				if _, hit := c.get(fmt.Sprintf("zz%03d", arg)); hit {
					t.Fatalf("get of unpopulated name hit")
				}
			case 12:
				// The live eviction transition: must agree with the
				// oracle, must only fire on entries placed on the given
				// level, must keep the entry out of the placement
				// pipeline until the tier removal returns, and must then
				// leave it re-placeable with no chunk state behind.
				g := ce.markEvictedFrom(int(arg)%levels, levels-1)
				w := oe.markEvictedFrom(int(arg)%levels, levels-1)
				if g != w {
					t.Fatalf("markEvictedFrom = %v, oracle %v", g, w)
				}
				if g {
					if st, lvl, armed := ce.snapshot(); st != stateEvicting || lvl != levels-1 || armed {
						t.Fatalf("evicting entry in state %d at level %d (armed=%v), want evicting at the source", st, lvl, armed)
					}
					if ce.tryQueue() || ce.makeReplaceable() {
						t.Fatalf("evicting entry re-entered placement before its removal returned")
					}
					ce.finishEvict()
					oe.finishEvict()
					if st, _, armed := ce.snapshot(); st != stateSource || armed {
						t.Fatalf("evicted entry in state %d (armed=%v), want re-placeable source", st, armed)
					}
					if !ce.tryQueue() || !oe.tryQueue() {
						t.Fatalf("evicted entry not immediately re-placeable")
					}
				}
			}
			check(pc, ce, oe)
		}

		// Whole-namespace walks must see exactly the oracle's names, in
		// sorted order, regardless of how they landed across shards.
		list := c.list()
		if len(list) != len(oracle) {
			t.Fatalf("list has %d entries, oracle %d", len(list), len(oracle))
		}
		for i, fi := range list {
			want := fmt.Sprintf("f%03d", i)
			if fi.Name != want || fi.Size != int64(i)*17 {
				t.Fatalf("list[%d] = %+v, want {%s %d}", i, fi, want, i*17)
			}
		}
		se := c.sortedEntries()
		for i, e := range se {
			if e.name != fmt.Sprintf("f%03d", i) {
				t.Fatalf("sortedEntries[%d] = %q, out of order", i, e.name)
			}
			if oracle[e.name] == nil {
				t.Fatalf("sortedEntries yielded unknown entry %q", e.name)
			}
		}
	})
}

// fanInTape is one reader's deterministic op sequence in the high
// fan-in stress test: the same tapes replayed serially must produce
// identical aggregate stats, because every op's outcome is a pure
// function of the (immutable) file contents.
type fanInTape struct {
	ops []fanInOp
}

type fanInOp struct {
	file int // -1 = read of an unknown name (must error)
	off  int64
	n    int
	view bool // read through ReadView instead of ReadAt
}

func makeFanInTape(seed int64, nfiles, fileSize, ops int) fanInTape {
	rng := rand.New(rand.NewSource(seed))
	tape := fanInTape{ops: make([]fanInOp, ops)}
	for i := range tape.ops {
		op := fanInOp{
			file: rng.Intn(nfiles),
			off:  int64(rng.Intn(fileSize + fileSize/4)), // some reads clip at / start past EOF
			n:    1 + rng.Intn(fileSize),
			view: rng.Intn(4) == 0,
		}
		if rng.Intn(32) == 0 {
			op.file = -1
		}
		tape.ops[i] = op
	}
	return tape
}

// runFanInTape replays one tape against m, verifying every read against
// the generating function, and returns (successful reads, bytes read,
// failed reads).
func runFanInTape(t *testing.T, m *Monarch, tape fanInTape, nfiles, fileSize int) (reads, bytesRead, errs int64) {
	ctx := context.Background()
	buf := make([]byte, fileSize)
	for _, op := range tape.ops {
		if op.file < 0 {
			if _, err := m.ReadAt(ctx, "missing", buf[:1], 0); err == nil {
				t.Error("read of unknown name succeeded")
				return
			}
			errs++
			continue
		}
		name := fmt.Sprintf("c%03d", op.file)
		want := chunkContent(op.file, fileSize)
		wantN := min(op.n, max(fileSize-int(op.off), 0))
		wantStart := min(int(op.off), fileSize)
		var got []byte
		if op.view {
			v, err := m.ReadView(ctx, name, op.off, int64(op.n))
			if err != nil {
				t.Errorf("ReadView(%s, %d, %d): %v", name, op.off, op.n, err)
				return
			}
			got = v.Data
			if len(got) != wantN || !bytes.Equal(got, want[wantStart:wantStart+wantN]) {
				v.Release()
				t.Errorf("ReadView(%s, %d, %d) returned wrong bytes (n=%d, want %d)",
					name, op.off, op.n, len(got), wantN)
				return
			}
			v.Release()
		} else {
			n, err := m.ReadAt(ctx, name, buf[:op.n], op.off)
			if err != nil {
				t.Errorf("ReadAt(%s, %d, %d): %v", name, op.off, op.n, err)
				return
			}
			if n != wantN || !bytes.Equal(buf[:n], want[wantStart:wantStart+wantN]) {
				t.Errorf("ReadAt(%s, %d, %d) returned wrong bytes (n=%d, want %d)",
					name, op.off, op.n, n, wantN)
				return
			}
		}
		reads++
		bytesRead += int64(wantN)
	}
	return reads, bytesRead, errs
}

func sum64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestReadAtHighFanIn hammers a chunked 2-level stack with 64 reader
// goroutines racing the background placements — hits, misses, mid-copy
// partial hits and unknown names all interleaved — and then replays the
// exact same tapes serially on a fresh stack. Every read must be
// byte-identical to the generating function in both runs, the
// timing-independent stats (reads, bytes, placements) must agree, and
// the buffer pool must balance once both stacks quiesce.
func TestReadAtHighFanIn(t *testing.T) {
	if testing.Short() {
		t.Skip("high fan-in stress test")
	}
	const (
		goroutines = 64
		nfiles     = 32
		fileSize   = 4096
		opsPerG    = 150
	)
	before := bufpool.Snapshot()
	tapes := make([]fanInTape, goroutines)
	for g := range tapes {
		tapes[g] = makeFanInTape(int64(g)*7919+1, nfiles, fileSize, opsPerG)
	}

	run := func(concurrent bool) (reads, bytesRead, errs int64, st Stats) {
		m := newChunkStack(t, storage.NewMemFS("ssd", 0), 2, nfiles, fileSize, nil)
		var r, b, e atomic.Int64
		if concurrent {
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					gr, gb, ge := runFanInTape(t, m, tapes[g], nfiles, fileSize)
					r.Add(gr)
					b.Add(gb)
					e.Add(ge)
				}(g)
			}
			wg.Wait()
		} else {
			for g := 0; g < goroutines; g++ {
				gr, gb, ge := runFanInTape(t, m, tapes[g], nfiles, fileSize)
				r.Add(gr)
				b.Add(gb)
				e.Add(ge)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		waitIdleM(t, m)
		st = m.Stats()
		// Every file was read at least once, so every file must end up
		// placed on tier 0 once the pool drains.
		for i := 0; i < nfiles; i++ {
			if lvl, err := m.LevelOf(fmt.Sprintf("c%03d", i)); err != nil || lvl != 0 {
				t.Fatalf("c%03d at level %d (err=%v) after quiesce, want 0", i, lvl, err)
			}
		}
		m.Close()
		return r.Load(), b.Load(), e.Load(), st
	}

	cr, cb, ce, cst := run(true)
	sr, sb, se, sst := run(false)

	if cr != sr || cb != sb || ce != se {
		t.Fatalf("concurrent run (reads=%d bytes=%d errs=%d) != serial (reads=%d bytes=%d errs=%d)",
			cr, cb, ce, sr, sb, se)
	}
	for name, pair := range map[string][2]int64{
		"ReadsServed": {sum64(cst.ReadsServed), sum64(sst.ReadsServed)},
		"BytesServed": {sum64(cst.BytesServed), sum64(sst.BytesServed)},
		"Placements":  {cst.Placements, sst.Placements},
		"PlacedBytes": {cst.PlacedBytes, sst.PlacedBytes},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: concurrent %d != serial %d", name, pair[0], pair[1])
		}
	}
	if got, want := sum64(cst.ReadsServed), cr; got != want {
		t.Errorf("stats counted %d served reads, tapes produced %d", got, want)
	}
	if got, want := sum64(cst.BytesServed), cb; got != want {
		t.Errorf("stats counted %d served bytes, tapes produced %d", got, want)
	}
	if cst.PlacementErrors != 0 || sst.PlacementErrors != 0 {
		t.Errorf("placement errors: concurrent %d, serial %d", cst.PlacementErrors, sst.PlacementErrors)
	}

	// Leak check: every pooled buffer the two runs borrowed (chunk
	// copies, probe scratch, view fallthroughs) must have been returned
	// or discarded once everything quiesced.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := bufpool.Snapshot()
		gets := after.Gets - before.Gets
		rets := (after.Puts - before.Puts) + (after.Discards - before.Discards)
		if gets == rets {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("buffer pool imbalance: %d gets, %d puts+discards", gets, rets)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
