package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"monarch/internal/core"
)

// Checkpoint bursts: every ckptPeriod the writer saves ckptShards
// files of ckptShardBytes in 256 KiB writes, waits until they are
// durable, reads them back from the PFS directory and removes them.
// The period gives a 15 s session over 1000 acks, enough for their
// p99, while keeping the bytes a run writes to the checkout's disk
// (tier 0, journal and PFS each take a copy) low.
const (
	ckptShards     = 4
	ckptShardBytes = 2 << 20
	ckptPeriod     = 450 * time.Millisecond
)

// ckptWriter is the training loop's checkpoint thread.
type ckptWriter struct {
	m       *core.Monarch
	rec     *recorder
	pfsDir  string
	corrupt bool // flip a byte of the first checkpoint on the PFS before it is read back
	bufs    [][]byte

	acks      []int64 // ns of each WriteAt ack
	stalls    []int64 // ns from the first Create to the last ack of a burst
	durables  []int64 // ns from burst start until every Flush returned
	acked     int64   // bytes acked
	attempted int64
	failed    int64
}

func newCkptWriter(m *core.Monarch, rec *recorder, pfsDir string, seed uint64, corrupt bool) *ckptWriter {
	w := &ckptWriter{m: m, rec: rec, pfsDir: pfsDir, corrupt: corrupt}
	for s := range ckptShards {
		buf := make([]byte, ckptShardBytes)
		fillPayload(buf, seed, s)
		w.bufs = append(w.bufs, buf)
	}
	return w
}

func (w *ckptWriter) fail(err error) {
	w.failed++
	if w.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: checkpoint: %v\n", err)
	}
}

// run issues a burst every ckptPeriod until stop closes. A burst that
// overruns its period delays the next one; bursts never overlap.
func (w *ckptWriter) run(ctx context.Context, stop <-chan struct{}) {
	start := time.Now()
	for b := 0; ; b++ {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(time.Duration(b) * ckptPeriod))):
		}
		select {
		case <-stop:
			return
		default:
		}
		w.burst(ctx, b)
	}
}

func (w *ckptWriter) burst(ctx context.Context, b int) {
	names := make([]string, ckptShards)
	for s := range names {
		names[s] = fmt.Sprintf("ckpt-%05d-%d", b, s)
		stamp(w.bufs[s], b)
	}
	t0 := time.Now()
	for s, name := range names {
		w.attempted++
		if err := w.m.Create(ctx, name, int64(len(w.bufs[s]))); err != nil {
			w.fail(err)
			return
		}
	}
	for s, name := range names {
		for off := 0; off < len(w.bufs[s]); off += preadSize {
			p := w.bufs[s][off:min(off+preadSize, len(w.bufs[s]))]
			t := time.Now()
			wctx, id := w.rec.beginParent(ctx, span{kind: kCoreWrite})
			n, err := w.m.WriteAt(wctx, name, p, int64(off))
			w.rec.end(id, int64(n))
			w.attempted++
			if err == nil && n != len(p) {
				err = fmt.Errorf("short write %d of %d", n, len(p))
			}
			if err != nil {
				w.fail(fmt.Errorf("write %s at %d: %w", name, off, err))
				continue
			}
			w.acks = append(w.acks, int64(time.Since(t)))
			w.acked += int64(n)
		}
	}
	w.stalls = append(w.stalls, int64(time.Since(t0)))
	for _, name := range names {
		w.attempted++
		if err := w.m.Flush(ctx, name); err != nil {
			w.fail(fmt.Errorf("flush %s: %w", name, err))
		}
	}
	w.durables = append(w.durables, int64(time.Since(t0)))
	for s, name := range names {
		path := filepath.Join(w.pfsDir, name)
		w.attempted++
		if w.corrupt && b == 0 && s == 0 {
			if err := flipByte(path, ckptShardBytes/2); err != nil {
				w.fail(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil {
			w.fail(fmt.Errorf("read back %s: %w", name, err))
		} else if !bytes.Equal(got, w.bufs[s]) {
			w.fail(fmt.Errorf("%s on the PFS differs from the bytes written", name))
		}
		w.attempted++
		if err := w.m.Remove(ctx, name); err != nil {
			w.fail(fmt.Errorf("remove %s: %w", name, err))
		}
	}
}
