// Package bufpool provides size-classed reusable byte buffers for the
// hot I/O paths: chunk-copy staging, peernet frame payloads, probe
// scratch, and the record payloads of the format readers (Stream).
// Buffers are recycled through per-class sync.Pools, so a
// steady-state read or placement loop stops paying an allocation (and
// the GC pressure of a short-lived multi-megabyte slice) per
// operation.
//
// Ownership rules:
//
//   - Get(n) returns a slice of length exactly n whose contents are
//     UNSPECIFIED — callers must overwrite before reading. (Builds with
//     -tags debug zero every Get so stale-data bugs surface as zeros,
//     and poison every Put so use-after-Put surfaces as 0xDB.)
//   - The caller that Gets a buffer owns it until it Puts it back;
//     passing ownership along with the slice is fine, sharing it after
//     Put is not.
//   - Put accepts only slices whose capacity is exactly one of the
//     pool's size classes (i.e. slices that came from Get, possibly
//     re-sliced shorter). Anything else is counted as a discard and
//     dropped, never recycled — so feeding a foreign slice in is safe,
//     just pointless.
//   - Put(nil) and Put of an empty slice are no-ops.
//
// Size classes are the powers of two from 512 B to 4 MiB, matching the
// repo's working sizes: probe scratch (1 B rounds to 512 B), peernet
// frame payloads (≤4 MiB by protocol limit), and chunk copies (256 KiB
// default). Requests above the largest class fall through to plain
// make and are never recycled.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// pool wraps sync.Pool storing *[]byte. The *[]byte boxes are
// recycled through boxes, so neither Get nor Put allocates once the
// pools are warm.
type pool struct{ p sync.Pool }

// boxes holds emptied *[]byte boxes, shared by all classes.
var boxes sync.Pool

func (pl *pool) get() []byte {
	v := pl.p.Get()
	if v == nil {
		return nil
	}
	box := v.(*[]byte)
	b := *box
	*box = nil
	boxes.Put(box)
	return b
}

func (pl *pool) put(b []byte) {
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b
	pl.p.Put(box)
}

const (
	// minClassBits..maxClassBits: 512 B .. 4 MiB.
	minClassBits = 9
	maxClassBits = 22
	numClasses   = maxClassBits - minClassBits + 1

	// MaxPooled is the largest request the pool will recycle.
	MaxPooled = 1 << maxClassBits
)

// Stats is a point-in-time snapshot of pool activity. In a quiesced
// system every Get has been answered by exactly one Put or one
// Discard, so Gets == Puts + Discards; the fan-in stress test pins
// that balance. News counts Gets that missed the pool (cold pool,
// post-GC refill, or oversize requests).
type Stats struct {
	Gets     int64 // buffers handed out
	Puts     int64 // buffers recycled
	News     int64 // Gets satisfied by a fresh allocation
	Discards int64 // Puts dropped (capacity not a size class)
}

var (
	classes [numClasses]pool
	gets    atomic.Int64
	puts    atomic.Int64
	news    atomic.Int64
	discard atomic.Int64
)

// classFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds MaxPooled.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for 1<<(minClassBits+c) < n {
		c++
	}
	return c
}

// classOf returns the class whose buffers have exactly capacity c, or
// -1 when c is not a class size.
func classOf(c int) int {
	if c < 1<<minClassBits || c > MaxPooled || c&(c-1) != 0 {
		return -1
	}
	k := 0
	for 1<<(minClassBits+k) < c {
		k++
	}
	return k
}

// Get returns a buffer of length exactly n. Contents are unspecified
// (zeroed under -tags debug); the caller owns the buffer until Put.
// n <= 0 returns nil.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	gets.Add(1)
	c := classFor(n)
	if c < 0 {
		// Oversize: plain allocation, never recycled.
		news.Add(1)
		return make([]byte, n)
	}
	if b := classes[c].get(); b != nil {
		b = b[:n]
		onGet(b)
		return b
	}
	news.Add(1)
	return make([]byte, n, 1<<(minClassBits+c))
}

// Put recycles a buffer obtained from Get. Slices whose capacity is
// not a size class (including oversize Get results) are dropped and
// counted as discards. Put(nil) is a no-op.
func Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	c := classOf(cap(b))
	if c < 0 {
		discard.Add(1)
		return
	}
	b = b[:cap(b)]
	onPut(b)
	puts.Add(1)
	classes[c].put(b)
}

// Snapshot returns current pool counters.
func Snapshot() Stats {
	return Stats{
		Gets:     gets.Load(),
		Puts:     puts.Load(),
		News:     news.Load(),
		Discards: discard.Load(),
	}
}
