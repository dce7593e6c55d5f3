package bufpool

import (
	"bufio"
	"io"
	"sync"
)

// Stream is the buffered source behind the record-format readers
// (tfrecord, recordio). Its 64 KiB bufio.Reader comes from a sync.Pool
// and its payload buffer from the size classes, and the payload buffer
// is reused for every record, so a steady-state record loop allocates
// nothing and opening one reader per shard allocates no buffers.
type Stream struct {
	r       *bufio.Reader // nil after Release
	payload []byte
}

var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}

// NewStream wraps r in a pooled bufio.Reader.
func NewStream(r io.Reader) Stream {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return Stream{r: br}
}

// ReadFull reads exactly len(p) bytes, with io.ReadFull's errors.
func (s *Stream) ReadFull(p []byte) (int, error) { return io.ReadFull(s.r, p) }

// ReadPayload reads exactly n bytes into the reused payload buffer and
// returns them; the slice is overwritten by the next ReadPayload. The
// buffer grows at most 1 MiB past the bytes that have actually
// arrived, so a corrupted length field cannot force a huge up-front
// allocation.
func (s *Stream) ReadPayload(n int64) ([]byte, error) {
	const chunk = 1 << 20
	data := s.payload[:0]
	for int64(len(data)) < n {
		want := int(min(n-int64(len(data)), chunk))
		if len(data)+want > cap(data) {
			// Doubling keeps the copies linear for payloads beyond
			// the largest class, which Get sizes exactly.
			grown := Get(max(len(data)+want, 2*cap(data)))
			copy(grown, data)
			Put(s.payload)
			s.payload = grown
			data = grown[:len(data)]
		}
		data = data[:len(data)+want]
		if _, err := io.ReadFull(s.r, data[len(data)-want:]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Release returns both buffers to their pools. Slices ReadPayload
// returned are invalid afterwards, and the Stream must not be used
// again.
func (s *Stream) Release() {
	Put(s.payload)
	s.payload = nil
	s.r.Reset(nil)
	readers.Put(s.r)
	s.r = nil
}
