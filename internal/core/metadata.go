package core

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/storage"
)

// placementState tracks a file's progress through the placement
// pipeline.
type placementState int

const (
	// stateSource: only the PFS copy exists and no placement has been
	// scheduled yet.
	stateSource placementState = iota
	// stateQueued: a placement task is queued or running.
	stateQueued
	// statePlaced: the file lives on an upper tier.
	statePlaced
	// stateUnplaceable: every candidate tier was full (or a placement
	// failed permanently); the file is served from the PFS until a tier
	// recovery makes it re-placeable (§III-A: placement stops once the
	// local tiers run out of space).
	stateUnplaceable
	// stateDemoted: the file was placed on a tier whose circuit breaker
	// tripped; it is served from the source until the tier recovers and
	// resetForReplacement sends it back through the placement pipeline.
	stateDemoted
	// stateEvicting: an eviction re-pointed the file at the source and is
	// removing its tier copy. Reads go to the source, but the entry stays
	// out of the placement pipeline until the removal returns: a
	// re-placement landing first would lose its new copy to the stale
	// removal while the metadata still said placed.
	stateEvicting
)

// fileEntry is the paper's "file info": size, name and current storage
// tier, guarded for concurrent access from the framework's reader
// threads and the placement pool. Beyond the paper it carries a
// chunk-presence bitmap while a chunked placement is in flight, so the
// read path can serve already-copied ranges from the upper tier
// mid-copy.
//
// Bitmap invariants:
//   - chunkBits is non-nil exactly between beginChunks and
//     markPlaced/clearChunks; outside that window reads never consult it;
//   - bit i covers byte range [i*chunkSize, min((i+1)*chunkSize, size));
//   - bits only go 0→1 while armed (markChunk), so a range observed
//     covered stays covered until the whole placement resolves;
//   - chunksLeft is the count of zero bits; it reaches 0 exactly when
//     every chunk landed, at which point the owner calls markPlaced.
type fileEntry struct {
	name string
	size int64

	// snap is a packed (state, level, chunk-armed) snapshot republished
	// under mu after every transition, so the read path answers "which
	// tier serves this file right now?" with one atomic load instead of
	// the entry mutex. Layout: bits 0–7 state, 8–31 level, 32 armed.
	// The mutex stays the sole writer: transitions are still serialized
	// and the snapshot is always internally consistent.
	snap atomic.Uint64

	// gen moves whenever a tier copy of the file may be removed or
	// replaced under a reader: on eviction, and before a chunked
	// placement allocates a fresh zero-filled copy. A read that was
	// routed to a copy and finds gen moved when it returns cannot trust
	// what it read.
	gen atomic.Uint32

	mu       sync.Mutex
	level    int
	state    placementState
	queuedAt time.Time // when the current placement was enqueued (latency spans)

	// Chunked-placement residency (armed only while a chunked copy is
	// in flight; nil in whole-file mode).
	chunkSize  int64
	chunkLevel int
	chunkBits  []uint64
	chunksLeft int
}

const snapArmed = 1 << 32

// publish refreshes the packed snapshot; callers hold e.mu (or hold the
// entry exclusively, as populate does before linking it into a shard).
func (e *fileEntry) publish() {
	s := uint64(e.state)&0xff | uint64(e.level)&0xffffff<<8
	if e.chunkBits != nil {
		s |= snapArmed
	}
	e.snap.Store(s)
}

// publishDisarmed drops any chunked-placement residency and republishes
// the snapshot; callers hold e.mu.
func (e *fileEntry) publishDisarmed() {
	e.chunkBits = nil
	e.chunkSize = 0
	e.chunksLeft = 0
	e.publish()
}

// snapshot returns the packed (state, level, armed) triple with one
// atomic load.
func (e *fileEntry) snapshot() (placementState, int, bool) {
	s := e.snap.Load()
	return placementState(s & 0xff), int(s >> 8 & 0xffffff), s&snapArmed != 0
}

func (e *fileEntry) currentLevel() int {
	_, lvl, _ := e.snapshot()
	return lvl
}

func (e *fileEntry) currentState() placementState {
	st, _, _ := e.snapshot()
	return st
}

// tryQueue transitions Source→Queued exactly once; it reports whether
// the caller won the race and should schedule the placement.
func (e *fileEntry) tryQueue() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateSource {
		return false
	}
	e.state = stateQueued
	e.queuedAt = time.Now()
	e.publish()
	return true
}

// queuedSince returns when the in-flight placement was enqueued; the
// zero time if none is.
func (e *fileEntry) queuedSince() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queuedAt
}

// markPlaced records a successful placement onto level and disarms any
// chunk bitmap: once placed, the normal tier routing serves the file.
func (e *fileEntry) markPlaced(level int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.level = level
	e.state = statePlaced
	e.publishDisarmed()
}

// chunkCount returns how many chunk-size pieces cover size bytes.
func chunkCount(size, chunk int64) int {
	if size <= 0 || chunk <= 0 {
		return 0
	}
	return int((size + chunk - 1) / chunk)
}

// beginChunks arms the chunk-presence bitmap for a chunked copy into
// level, discarding any prior partial state (a retried placement starts
// over).
func (e *fileEntry) beginChunks(level int, chunk int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := chunkCount(e.size, chunk)
	e.chunkSize = chunk
	e.chunkLevel = level
	e.chunkBits = make([]uint64, (n+63)/64)
	e.chunksLeft = n
	e.publish()
}

// markChunk records chunk i resident; it reports whether i was the last
// missing chunk, i.e. the copy is now complete. Marking an unarmed,
// out-of-range, or already-set chunk is a no-op — the range check must
// use the real chunk count, not the bitmap's word capacity, or phantom
// indices in the last word's slack would drive chunksLeft negative and
// complete the placement early.
func (e *fileEntry) markChunk(i int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.chunkBits == nil || i < 0 || i >= chunkCount(e.size, e.chunkSize) {
		return false
	}
	w, b := i/64, uint(i%64)
	if e.chunkBits[w]&(1<<b) != 0 {
		return false
	}
	e.chunkBits[w] |= 1 << b
	e.chunksLeft--
	return e.chunksLeft == 0
}

// clearChunks discards partial-copy state after a failed or cancelled
// chunked placement; the entry falls back to source-only residency.
func (e *fileEntry) clearChunks() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.publishDisarmed()
}

// chunksCover reports whether every chunk overlapping [off, off+n)
// (clamped to the file size) is already resident on the tier a chunked
// placement is copying into, returning that level. It only answers
// while the placement is in flight (stateQueued with an armed bitmap);
// empty ranges are routed to the source like today.
func (e *fileEntry) chunksCover(off, n int64) (int, bool) {
	// Lock-free pre-gate: outside the beginChunks→markPlaced/clearChunks
	// window (the common case — placed or plain source files) the armed
	// bit is clear and reads never pay the entry mutex here.
	if st, _, armed := e.snapshot(); !armed || st != stateQueued {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.chunkBits == nil || e.chunkSize <= 0 || e.state != stateQueued {
		return 0, false
	}
	if off < 0 || off >= e.size {
		return 0, false
	}
	end := off + n
	if end > e.size {
		end = e.size
	}
	if end <= off {
		return 0, false
	}
	for i := off / e.chunkSize; i*e.chunkSize < end; i++ {
		w, b := i/64, uint(i%64)
		if e.chunkBits[w]&(1<<b) == 0 {
			return 0, false
		}
	}
	return e.chunkLevel, true
}

// markUnplaceable records that no tier had space.
func (e *fileEntry) markUnplaceable() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = stateUnplaceable
	e.publishDisarmed()
}

// markEvicted sends the file back to the source level so a later access
// may re-place it, discarding any chunk state so the presence bitmap
// never outlives the entry's residency. Prefer markEvictedFrom on the
// live eviction path; this unconditional form remains for the namespace
// fuzz tapes.
func (e *fileEntry) markEvicted(sourceLevel int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen.Add(1)
	e.level = sourceLevel
	e.state = stateSource
	e.publishDisarmed()
}

// markEvictedFrom atomically re-points a file placed on from at the
// source level, reporting whether the entry actually moved. It refuses
// any entry not currently placed on from — in particular queued entries
// with an in-flight (possibly chunk-armed) placement, which is what
// pins them against eviction — so a victim chosen from a stale policy
// view is skipped instead of corrupted. The evicted entry lands in
// stateEvicting; finishEvict makes it re-placeable once the tier copy's
// removal has returned.
func (e *fileEntry) markEvictedFrom(from, sourceLevel int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != statePlaced || e.level != from {
		return false
	}
	e.level = sourceLevel
	e.state = stateEvicting
	e.gen.Add(1)
	e.publishDisarmed()
	return true
}

// finishEvict returns an evicting entry to Source, immediately
// re-placeable on its next access.
func (e *fileEntry) finishEvict() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateEvicting {
		e.state = stateSource
		e.publish()
	}
}

// markDemoted re-points a file placed on a tripped tier at the source
// level; it reports whether the entry actually moved (false when a
// concurrent demotion or placement already changed it).
func (e *fileEntry) markDemoted(from, sourceLevel int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != statePlaced || e.level != from {
		return false
	}
	e.level = sourceLevel
	e.state = stateDemoted
	e.publish()
	return true
}

// cancelQueued returns a queued entry to Source after a cancelled
// placement, so a later access may schedule it again; a cancelled
// placement is not a placement failure.
func (e *fileEntry) cancelQueued() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateQueued {
		e.state = stateSource
	}
	e.publishDisarmed()
}

// makeReplaceable sends a demoted or unplaceable entry back to Source
// so its next access re-enters the placement pipeline; it reports
// whether the entry changed.
func (e *fileEntry) makeReplaceable() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateDemoted && e.state != stateUnplaceable {
		return false
	}
	e.state = stateSource
	e.publish()
	return true
}

// metaShards is the lock-stripe width of the namespace. Power of two
// so shard selection is a mask; 64 stripes keep the collision odds of
// any two concurrently-read files on one lock at ~1.5%.
const metaShards = 64

// metaShard is one lock stripe: a plain map under its own RWMutex.
// Padding keeps neighbouring shards' locks off one cache line, so
// reader fan-in on shard i doesn't false-share with shard i+1.
type metaShard struct {
	mu      sync.RWMutex
	entries map[string]*fileEntry
	_       [40]byte
}

// metadataContainer is the paper's virtual namespace module. It follows
// an ephemeral storage model: populated at the start of the training
// job, updated during runtime, and discarded with the process.
//
// The namespace is sharded into metaShards lock stripes keyed by a
// maphash of the file name: a read locks only its own stripe, so
// goroutine fan-in on distinct files no longer serializes on one
// RWMutex cache line. Entries never move between stripes (the
// namespace is append-only after Init), and whole-namespace walks
// (list, resetForReplacement) take the stripes in index order.
type metadataContainer struct {
	seed   maphash.Seed
	shards [metaShards]metaShard
	ready  atomic.Bool
	count  atomic.Int64
	levels int
}

func newMetadataContainer(levels int) *metadataContainer {
	c := &metadataContainer{seed: maphash.MakeSeed(), levels: levels}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*fileEntry)
	}
	return c
}

func (c *metadataContainer) shard(name string) *metaShard {
	return &c.shards[maphash.String(c.seed, name)&(metaShards-1)]
}

// populate builds the namespace from a source-level listing.
func (c *metadataContainer) populate(infos []storage.FileInfo, sourceLevel int) {
	for _, fi := range infos {
		e := &fileEntry{name: fi.Name, size: fi.Size, level: sourceLevel}
		e.publish()
		s := c.shard(fi.Name)
		s.mu.Lock()
		if _, exists := s.entries[fi.Name]; !exists {
			c.count.Add(1)
		}
		s.entries[fi.Name] = e
		s.mu.Unlock()
	}
	c.ready.Store(true)
}

// insert adds one entry at runtime (the write path registering a
// created file). It fails with storage.ErrExist when the name is
// taken: writable names must not shadow dataset files.
func (c *metadataContainer) insert(name string, size int64, level int, state placementState) (*fileEntry, error) {
	e := &fileEntry{name: name, size: size, level: level, state: state}
	e.publish()
	s := c.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[name]; exists {
		return nil, storage.ErrExist
	}
	s.entries[name] = e
	c.count.Add(1)
	return e, nil
}

// remove drops an entry from the namespace (the write path's Remove);
// it reports whether the name was present.
func (c *metadataContainer) remove(name string) bool {
	s := c.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[name]; !exists {
		return false
	}
	delete(s.entries, name)
	c.count.Add(-1)
	return true
}

func (c *metadataContainer) initialized() bool {
	return c.ready.Load()
}

func (c *metadataContainer) get(name string) (*fileEntry, bool) {
	s := c.shard(name)
	s.mu.RLock()
	e, ok := s.entries[name]
	s.mu.RUnlock()
	return e, ok
}

func (c *metadataContainer) len() int {
	return int(c.count.Load())
}

// list returns the namespace sorted by name.
func (c *metadataContainer) list() []storage.FileInfo {
	out := make([]storage.FileInfo, 0, c.len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, storage.FileInfo{Name: e.name, Size: e.size})
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// resetForReplacement makes every demoted or unplaceable entry
// re-placeable after a tier recovery; it returns how many entries
// changed.
func (c *metadataContainer) resetForReplacement() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			if e.makeReplaceable() {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// sortedEntries returns entries in name order (pre-staging order).
func (c *metadataContainer) sortedEntries() []*fileEntry {
	out := make([]*fileEntry, 0, c.len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
