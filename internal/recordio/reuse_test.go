package recordio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"monarch/internal/bufpool"
)

// streamOf serializes payloads as one RecordIO stream.
func streamOf(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range payloads {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomPayloads returns n payloads of up to max bytes.
func randomPayloads(seed int64, n, max int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, rng.Intn(max+1))
		rng.Read(out[i])
	}
	return out
}

// loopReader replays b forever, so a Reader over it never reaches EOF.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

func TestNextAllocatesNothing(t *testing.T) {
	payloads := randomPayloads(1, 32, 150<<10)
	r := NewReader(&loopReader{b: streamOf(t, payloads...)})
	// One pass sizes the payload buffer for the largest record.
	for range payloads {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next on a warm stream: %v allocs/op, want 0", allocs)
	}
}

func TestReaderPerShardAllocatesOnlyItself(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	raw := streamOf(t, randomPayloads(2, 18, 110<<10)...)
	src := bytes.NewReader(raw)
	drain := func() {
		src.Reset(raw)
		r := NewReader(src)
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	drain() // warm the pools
	if allocs := testing.AllocsPerRun(50, drain); allocs > 1 {
		t.Fatalf("draining one reader: %v allocs, want at most the *Reader", allocs)
	}
}

// TestReaderReturnsBuffersToPool: whether a stream ends cleanly or on
// corruption, every buffer the Reader took from bufpool goes back, and
// the error stays sticky. The 5 MiB record grows the payload buffer
// past bufpool's largest class.
func TestReaderReturnsBuffersToPool(t *testing.T) {
	big := make([]byte, 5<<20+1)
	rand.New(rand.NewSource(4)).Read(big)
	payloads := append(randomPayloads(3, 8, 200<<10), big)
	raw := streamOf(t, payloads...)
	idx, err := BuildIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(raw)
	corrupt[idx[4].Offset] ^= 0xFF // magic of record 4

	for _, tc := range []struct {
		name    string
		data    []byte
		records int
		want    error
	}{
		{"eof", raw, len(payloads), io.EOF},
		{"bad-magic", corrupt, 4, ErrBadMagic},
		{"truncated", raw[:len(raw)-1], len(payloads) - 1, ErrTruncated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := bufpool.Snapshot()
			r := NewReader(bytes.NewReader(tc.data))
			for i := 0; i < tc.records; i++ {
				got, err := r.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if !bytes.Equal(got, payloads[i]) {
					t.Fatalf("record %d differs", i)
				}
			}
			off := r.Offset()
			_, err := r.Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			for i := 0; i < 3; i++ {
				if got, again := r.Next(); again != err || got != nil {
					t.Fatalf("call %d after %v: %q, %v", i, err, got, again)
				}
			}
			if r.Offset() != off {
				t.Fatalf("Offset moved from %d to %d after the error", off, r.Offset())
			}
			after := bufpool.Snapshot()
			gets, puts, discards := after.Gets-before.Gets, after.Puts-before.Puts, after.Discards-before.Discards
			if gets == 0 || gets != puts+discards {
				t.Fatalf("bufpool: %d gets, %d puts, %d discards", gets, puts, discards)
			}
		})
	}
}
