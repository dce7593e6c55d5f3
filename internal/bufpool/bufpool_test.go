package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {512, 0}, {513, 1}, {1024, 1},
		{64 << 10, classOf(64 << 10)}, {MaxPooled, numClasses - 1},
		{MaxPooled + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if classOf(512) != 0 || classOf(1024) != 1 || classOf(MaxPooled) != numClasses-1 {
		t.Errorf("classOf size-class mismatch: %d %d %d", classOf(512), classOf(1024), classOf(MaxPooled))
	}
	for _, bad := range []int{0, 1, 511, 768, MaxPooled * 2} {
		if got := classOf(bad); got != -1 {
			t.Errorf("classOf(%d) = %d, want -1", bad, got)
		}
	}
}

// TestGetLength pins the length contract: Get(n) is always exactly n
// bytes long, with the capacity rounded up to the size class (oversize
// requests get exact capacity and are never recycled).
func TestGetLength(t *testing.T) {
	for _, n := range []int{1, 7, 512, 513, 4096, 64 << 10, 256 << 10, MaxPooled, MaxPooled + 1} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if n <= MaxPooled {
			if c := cap(b); c&(c-1) != 0 || c < n {
				t.Fatalf("Get(%d): cap %d not a size class", n, c)
			}
		}
		Put(b)
	}
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	if b := Get(-3); b != nil {
		t.Fatalf("Get(-3) = %v, want nil", b)
	}
}

// TestStatsBalance pins the accounting identity the leak checks rely
// on: after every Get has been answered by a Put, Gets == Puts +
// Discards (oversize buffers are discarded, class buffers recycled).
func TestStatsBalance(t *testing.T) {
	before := Snapshot()
	bufs := make([][]byte, 0, 64)
	for i := 0; i < 32; i++ {
		bufs = append(bufs, Get(1<<uint(9+i%6)), Get(MaxPooled+1))
	}
	for _, b := range bufs {
		Put(b)
	}
	after := Snapshot()
	gets := after.Gets - before.Gets
	puts := after.Puts - before.Puts
	disc := after.Discards - before.Discards
	if gets != 64 {
		t.Fatalf("Gets delta %d, want 64", gets)
	}
	if puts+disc != gets {
		t.Fatalf("Puts %d + Discards %d != Gets %d", puts, disc, gets)
	}
	if disc != 32 {
		t.Fatalf("Discards delta %d, want 32 (one per oversize Put)", disc)
	}
}

// TestPutForeign: slices that never came from Get are dropped, not
// recycled — cap not a size class.
func TestPutForeign(t *testing.T) {
	before := Snapshot()
	Put(make([]byte, 100))
	Put(nil)
	Put([]byte{})
	after := Snapshot()
	if d := after.Discards - before.Discards; d != 1 {
		t.Fatalf("Discards delta %d, want 1 (nil/empty Puts are no-ops)", d)
	}
	if p := after.Puts - before.Puts; p != 0 {
		t.Fatalf("Puts delta %d, want 0", p)
	}
}

// TestReslicedPut: a Get buffer re-sliced shorter still recycles (Put
// keys on capacity, not length).
func TestReslicedPut(t *testing.T) {
	before := Snapshot()
	b := Get(4096)
	Put(b[:10])
	after := Snapshot()
	if p := after.Puts - before.Puts; p != 1 {
		t.Fatalf("Puts delta %d, want 1", p)
	}
}

// TestGetPutAllocatesNothing: once a class holds a buffer, a Get/Put
// round trip allocates neither the buffer nor the pool's box for it.
func TestGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	Put(Get(4096))
	if allocs := testing.AllocsPerRun(100, func() { Put(Get(4096)) }); allocs != 0 {
		t.Fatalf("Get+Put: %v allocs/op, want 0", allocs)
	}
}

// TestConcurrent hammers Get/Put from many goroutines and checks the
// balance identity afterwards — mostly a race-detector target.
func TestConcurrent(t *testing.T) {
	before := Snapshot()
	var wg sync.WaitGroup
	const workers, rounds = 16, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := 1 << uint(9+(w+i)%10)
				b := Get(n)
				b[0], b[n-1] = byte(w), byte(i)
				if b[0] != byte(w) || b[n-1] != byte(i) {
					t.Errorf("buffer not writable")
					return
				}
				Put(b)
			}
		}(w)
	}
	wg.Wait()
	after := Snapshot()
	gets := after.Gets - before.Gets
	puts := after.Puts - before.Puts
	disc := after.Discards - before.Discards
	if gets != workers*rounds {
		t.Fatalf("Gets delta %d, want %d", gets, workers*rounds)
	}
	if puts+disc != gets {
		t.Fatalf("Puts %d + Discards %d != Gets %d", puts, disc, gets)
	}
}
