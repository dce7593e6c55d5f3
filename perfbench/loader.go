package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/core"
	"monarch/internal/storage"
	"monarch/internal/tfrecord"
)

// loader is one input-pipeline goroutine of a trainer: a closed loop
// that reads a shard in 256 KiB preads through MONARCH, parses every
// record with CRC checks, and checks the shard against the fixture.
type loader struct {
	m    *core.Monarch
	rec  *recorder
	view bool // read through ReadView instead of ReadAt
	buf  []byte

	lat       []int64 // ns of each successful pread
	preads    int64
	bytes     int64
	readNS    int64 // loader-timed read total, for the trace accounting check
	attempted int64 // preads plus shard verifications
	failed    int64

	warmFrom int // index of the first warm-epoch sample in lat
}

func newLoader(m *core.Monarch, rec *recorder, view bool) *loader {
	return &loader{m: m, rec: rec, view: view, buf: make([]byte, preadSize)}
}

// markWarm notes that the cold epoch is over.
func (l *loader) markWarm() { l.warmFrom = len(l.lat) }

// maxReported bounds the failure messages printed per loader.
const maxReported = 5

func (l *loader) fail(err error) {
	l.failed++
	if l.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

// shard reads and verifies one shard.
func (l *loader) shard(ctx context.Context, sh *shardInfo) {
	ctx, id := l.rec.beginParent(ctx, span{kind: kTFParse})
	sr := &shardReader{l: l, ctx: ctx, sh: sh}
	rd := tfrecord.NewReader(sr)
	n := 0
	var err error
	for {
		var rec []byte
		if rec, err = rd.Next(); err != nil {
			break
		}
		if n >= len(sh.records) || int64(len(rec)) != sh.records[n] {
			err = fmt.Errorf("record %d has %d bytes, fixture says otherwise", n, len(rec))
			break
		}
		n++
	}
	l.rec.end(id, int64(n))
	sr.release()
	l.attempted++
	if err == io.EOF {
		err = nil
	}
	switch {
	case err != nil:
	case n != len(sh.records):
		err = fmt.Errorf("%d records, fixture has %d", n, len(sh.records))
	case sr.off != sh.size || sr.crc != sh.crc:
		err = fmt.Errorf("checksum %08x over %d bytes, fixture has %08x over %d", sr.crc, sr.off, sh.crc, sh.size)
	}
	if err != nil {
		l.fail(fmt.Errorf("shard %s: %w", sh.name, err))
	}
}

// shardReader turns a shard into an io.Reader over 256 KiB preads, so
// tfrecord sees the same call pattern as TensorFlow's file reader.
type shardReader struct {
	l   *loader
	ctx context.Context
	sh  *shardInfo
	off int64        // offset of the next pread
	v   storage.View // the current view, when reading through ReadView
	cur []byte       // unread bytes of the current pread
	crc uint32
}

func (r *shardReader) Read(p []byte) (int, error) {
	if len(r.cur) == 0 {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.cur)
	r.cur = r.cur[n:]
	return n, nil
}

func (r *shardReader) release() {
	r.v.Release()
	r.v = storage.View{}
}

func (r *shardReader) fill() error {
	r.release()
	if r.off >= r.sh.size {
		return io.EOF
	}
	l := r.l
	want := min(int64(preadSize), r.sh.size-r.off)
	t0 := time.Now()
	ctx, id := l.rec.beginParent(r.ctx, span{kind: kCoreRead})
	var data []byte
	var err error
	if l.view {
		r.v, err = l.m.ReadView(ctx, r.sh.name, r.off, want)
		data = r.v.Data
	} else {
		var n int
		n, err = l.m.ReadAt(ctx, r.sh.name, l.buf[:want], r.off)
		data = l.buf[:n]
	}
	l.rec.end(id, int64(len(data)))
	d := int64(time.Since(t0))
	l.preads++
	l.attempted++
	if err == nil && int64(len(data)) != want {
		err = fmt.Errorf("short read: %d of %d bytes", len(data), want)
	}
	if err != nil {
		err = fmt.Errorf("pread %s at %d: %w", r.sh.name, r.off, err)
		l.fail(err)
		return err
	}
	l.lat = append(l.lat, d)
	l.readNS += d
	l.bytes += int64(len(data))
	r.crc = crc32.Update(r.crc, castagnoli, data)
	r.off += int64(len(data))
	r.cur = data
	return nil
}

// epoch has the loaders pull shards from order until it is used up.
func epoch(ctx context.Context, loaders []*loader, fx *fixture, order []int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, l := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				l.shard(ctx, &fx.shards[order[i]])
			}
		}()
	}
	wg.Wait()
}
