package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// kind names a span: the layer boundary it was recorded at.
type kind uint8

const (
	kCoreRead  kind = iota // a loader pread: core ReadAt or ReadView
	kCoreWrite             // a checkpoint WriteAt
	kCoreInit              // core Init
	kTFParse               // tfrecord parsing of one shard, reads included
	kPoolTask              // one placement-pool task
	kPeerServe             // the serving half of a peer read (ServerConfig.Trace)
	kStorage               // a backend op; layer and op say which
)

// layer is the backend a kStorage span was recorded on.
type layer uint8

const (
	lTier0 layer = iota
	lPFS
	lPeer
)

var layerNames = [...]string{lTier0: "tier0", lPFS: "pfs", lPeer: "peer"}

// op is the backend method of a kStorage span.
type op uint8

const (
	opRead     op = iota // ReadAt or ReadView
	opReadFile           // whole-file read
	opWrite              // WriteAt or WriteFile
	opMeta               // List, Stat, Allocate, Remove, Ping
)

var opNames = [...]string{opRead: "read", opReadFile: "readfile", opWrite: "write", opMeta: "meta"}

func (s *span) name() string {
	switch s.kind {
	case kCoreRead:
		return "core.read"
	case kCoreWrite:
		return "core.write"
	case kCoreInit:
		return "core.init"
	case kTFParse:
		return "tfrecord.parse"
	case kPoolTask:
		return "pool.task"
	case kPeerServe:
		return "peernet.serve"
	}
	return "storage." + layerNames[s.layer] + "." + opNames[s.op]
}

// span is one timed call at a layer boundary. IDs are 1-based indexes
// into the recorder; parent 0 marks a root.
type span struct {
	parent     int32
	kind       kind
	layer      layer
	op         op
	req        uint64 // peer request ID, joins client and server halves
	start, end int64  // ns since the recorder's base
	bytes      int64  // bytes moved; records parsed for kTFParse
	wait       int64  // ns a pool task queued before it ran
}

func (s *span) dur() int64 { return s.end - s.start }

// spanChunk keeps span addresses stable while the recorder grows, so a
// span can be finished without the recorder's lock.
const spanChunk = 4096

// recorder keeps every span in memory until the run ends. A nil
// recorder records nothing: the untraced runs pass nil.
type recorder struct {
	base   time.Time
	mu     sync.Mutex
	chunks []*[spanChunk]span
	n      int
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

type spanKey struct{}

// parentOf returns the span ID the caller's ctx carries, 0 for none.
func parentOf(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span under the span ctx carries and returns its ID.
func (r *recorder) begin(ctx context.Context, s span) int32 {
	if r == nil {
		return 0
	}
	s.parent = parentOf(ctx)
	s.start = r.now()
	return r.push(s)
}

func (r *recorder) push(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n%spanChunk == 0 {
		r.chunks = append(r.chunks, new([spanChunk]span))
	}
	r.chunks[r.n/spanChunk][r.n%spanChunk] = s
	r.n++
	return int32(r.n)
}

// beginParent opens a span and returns a ctx that parents later spans
// to it.
func (r *recorder) beginParent(ctx context.Context, s span) (context.Context, int32) {
	if r == nil {
		return ctx, 0
	}
	id := r.begin(ctx, s)
	return context.WithValue(ctx, spanKey{}, id), id
}

func (r *recorder) at(id int32) *span {
	i := int(id) - 1
	r.mu.Lock()
	defer r.mu.Unlock()
	return &r.chunks[i/spanChunk][i%spanChunk]
}

// end closes span id; bytes is what it moved.
func (r *recorder) end(id int32, bytes int64) {
	if r == nil || id == 0 {
		return
	}
	s := r.at(id)
	s.end = r.now()
	s.bytes = bytes
}

// spans returns every span; call it once the run has stopped.
func (r *recorder) spans() []span {
	out := make([]span, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.chunks[i/spanChunk][i%spanChunk])
	}
	return out
}

// writeSpans writes spans as tab-separated text, one per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tbytes\treq\twait_ns")
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", i+1, s.parent, s.name(), s.start, s.end, s.bytes, s.req, s.wait)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peerServeHook records the serving half of each peer read. The server
// reports only a duration, so the span is placed to end now.
func (r *recorder) peerServeHook() obs.TraceHook {
	return func(s obs.Span) {
		if s.Kind != obs.SpanPeerServe {
			return
		}
		end := r.now()
		r.push(span{kind: kPeerServe, req: s.Req, start: end - int64(s.Duration), end: end, bytes: s.Bytes})
	}
}

// timedFS records a span around every call into a backend. Use
// wrapBackend, which keeps the optional interfaces of what it wraps.
type timedFS struct {
	inner storage.Backend
	rec   *recorder
	layer layer
}

func (t *timedFS) begin(ctx context.Context, o op) int32 {
	return t.rec.begin(ctx, span{kind: kStorage, layer: t.layer, op: o, req: obs.RequestIDFrom(ctx)})
}

func (t *timedFS) Name() string    { return t.inner.Name() }
func (t *timedFS) Capacity() int64 { return t.inner.Capacity() }
func (t *timedFS) Used() int64     { return t.inner.Used() }

func (t *timedFS) List(ctx context.Context) ([]storage.FileInfo, error) {
	id := t.begin(ctx, opMeta)
	infos, err := t.inner.List(ctx)
	t.rec.end(id, 0)
	return infos, err
}

func (t *timedFS) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	id := t.begin(ctx, opMeta)
	fi, err := t.inner.Stat(ctx, name)
	t.rec.end(id, 0)
	return fi, err
}

func (t *timedFS) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	id := t.begin(ctx, opRead)
	n, err := t.inner.ReadAt(ctx, name, p, off)
	t.rec.end(id, int64(n))
	return n, err
}

func (t *timedFS) ReadFile(ctx context.Context, name string) ([]byte, error) {
	id := t.begin(ctx, opReadFile)
	data, err := t.inner.ReadFile(ctx, name)
	t.rec.end(id, int64(len(data)))
	return data, err
}

func (t *timedFS) WriteFile(ctx context.Context, name string, data []byte) error {
	id := t.begin(ctx, opWrite)
	err := t.inner.WriteFile(ctx, name, data)
	t.rec.end(id, int64(len(data)))
	return err
}

func (t *timedFS) Remove(ctx context.Context, name string) error {
	id := t.begin(ctx, opMeta)
	err := t.inner.Remove(ctx, name)
	t.rec.end(id, 0)
	return err
}

// timedView adds storage.ViewReader.
type timedView struct{ t *timedFS }

func (v timedView) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	id := v.t.begin(ctx, opRead)
	view, err := v.t.inner.(storage.ViewReader).ReadView(ctx, name, off, n)
	v.t.rec.end(id, int64(len(view.Data)))
	return view, err
}

// timedRange adds storage.RangeWriter.
type timedRange struct{ t *timedFS }

func (r timedRange) Allocate(ctx context.Context, name string, size int64) error {
	id := r.t.begin(ctx, opMeta)
	err := r.t.inner.(storage.RangeWriter).Allocate(ctx, name, size)
	r.t.rec.end(id, 0)
	return err
}

func (r timedRange) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	id := r.t.begin(ctx, opWrite)
	n, err := r.t.inner.(storage.RangeWriter).WriteAt(ctx, name, p, off)
	r.t.rec.end(id, int64(n))
	return n, err
}

// timedPing adds storage.Pinger.
type timedPing struct{ t *timedFS }

func (p timedPing) Ping(ctx context.Context) error {
	id := p.t.begin(ctx, opMeta)
	err := p.t.inner.(storage.Pinger).Ping(ctx)
	p.t.rec.end(id, 0)
	return err
}

// wrapBackend returns b with a span around every call, implementing
// exactly the optional interfaces b implements: core takes the ReadView
// fast path, accepts the write path and probes with Ping based on them,
// so a wrapper that gained or lost one would change the program under
// measurement. Only the capability sets this benchmark wraps are
// supported; a nil recorder returns b itself.
func wrapBackend(b storage.Backend, rec *recorder, l layer) (storage.Backend, error) {
	if rec == nil {
		return b, nil
	}
	t := &timedFS{inner: b, rec: rec, layer: l}
	_, view := b.(storage.ViewReader)
	_, rng := b.(storage.RangeWriter)
	_, ping := b.(storage.Pinger)
	_, copier := b.(storage.Copier)
	switch {
	case copier:
	case view && rng && !ping:
		return struct {
			*timedFS
			timedView
			timedRange
		}{t, timedView{t}, timedRange{t}}, nil
	case !view && !rng && ping:
		return struct {
			*timedFS
			timedPing
		}{t, timedPing{t}}, nil
	}
	return nil, fmt.Errorf("wrap %s: unsupported capability set (view=%v range=%v ping=%v copy=%v)",
		b.Name(), view, rng, ping, copier)
}

// executor is a placement pool that reports its load.
type executor interface {
	pool.Executor
	pool.Introspector
}

// timedPool records a span around every placement task and parents the
// task's backend calls to it. It forwards pool.Introspector, so core's
// queue-depth gauges read the wrapped pool.
type timedPool struct {
	executor
	rec *recorder
}

// wrapPool returns p with task spans; a nil recorder returns p itself.
func wrapPool(p executor, rec *recorder) executor {
	if rec == nil {
		return p
	}
	return &timedPool{executor: p, rec: rec}
}

// Submit implements pool.Executor.
func (p *timedPool) Submit(t pool.Task) bool {
	queued := p.rec.now()
	return p.executor.Submit(func(ctx context.Context) {
		ctx, id := p.rec.beginParent(ctx, span{kind: kPoolTask})
		s := p.rec.at(id)
		s.wait = s.start - queued
		t(ctx)
		p.rec.end(id, 0)
	})
}
