package tfrecord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
	"testing/quick"
)

func TestMaskedCRCKnownVector(t *testing.T) {
	// The empty-payload masked CRC is a stable constant of the format:
	// crc32c("") = 0, masked = rotr15(0) + 0xa282ead8.
	if got := MaskedCRC(nil); got != 0xa282ead8 {
		t.Fatalf("MaskedCRC(nil) = %#x, want 0xa282ead8", got)
	}
	// Regression vector computed from TensorFlow's implementation
	// definition: crc32c("a") = 0xc1d04330.
	crcA := uint32(0xc1d04330)
	want := ((crcA >> 15) | (crcA << 17)) + 0xa282ead8
	if got := MaskedCRC([]byte("a")); got != want {
		t.Fatalf("MaskedCRC(a) = %#x, want %#x", got, want)
	}
}

func TestWriterProducesExactFraming(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	payload := []byte("hello")
	if err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if int64(len(raw)) != RecordSize(int64(len(payload))) {
		t.Fatalf("file size %d, want %d", len(raw), RecordSize(5))
	}
	if binary.LittleEndian.Uint64(raw[:8]) != 5 {
		t.Fatal("length header wrong")
	}
	if binary.LittleEndian.Uint32(raw[8:12]) != MaskedCRC(raw[:8]) {
		t.Fatal("length CRC wrong")
	}
	if !bytes.Equal(raw[12:17], payload) {
		t.Fatal("payload wrong")
	}
	if binary.LittleEndian.Uint32(raw[17:21]) != MaskedCRC(payload) {
		t.Fatal("data CRC wrong")
	}
}

func TestRoundtripMultipleRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	records := [][]byte{[]byte("one"), {}, []byte("three"), bytes.Repeat([]byte{0xAB}, 10000)}
	for _, rec := range records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 4 {
		t.Fatalf("Records = %d", w.Records())
	}
	if w.Written() != int64(buf.Len()) {
		t.Fatalf("Written = %d, buffer = %d", w.Written(), buf.Len())
	}

	r := NewReader(&buf)
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	err := quick.Check(func(payloads [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range payloads {
			if err := w.Write(p); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		for _, want := range payloads {
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func corruptedShard(t *testing.T, flip int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[flip] ^= 0xFF
	return raw
}

func TestReaderDetectsLengthCorruption(t *testing.T) {
	raw := corruptedShard(t, 9) // inside length CRC
	_, err := NewReader(bytes.NewReader(raw)).Next()
	if !errors.Is(err, ErrBadLengthCRC) {
		t.Fatalf("got %v", err)
	}
}

func TestReaderDetectsDataCorruption(t *testing.T) {
	raw := corruptedShard(t, 13) // inside payload
	_, err := NewReader(bytes.NewReader(raw)).Next()
	if !errors.Is(err, ErrBadDataCRC) {
		t.Fatalf("got %v", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 14, buf.Len() - 1} {
		_, err := NewReader(bytes.NewReader(buf.Bytes()[:cut])).Next()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: got %v", cut, err)
		}
	}
}

func TestReaderVerifyDisabled(t *testing.T) {
	raw := corruptedShard(t, 13) // payload corrupted, CRC stale
	r := NewReader(bytes.NewReader(raw))
	r.Verify = false
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len("payload") {
		t.Fatalf("len = %d", len(got))
	}
}

func TestReaderRejectsImplausibleLength(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], 1<<50)
	binary.LittleEndian.PutUint32(hdr[8:12], MaskedCRC(hdr[:8]))
	_, err := NewReader(bytes.NewReader(hdr[:])).Next()
	if err == nil {
		t.Fatal("expected error for huge length")
	}
}

func TestBuildIndex(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sizes := []int{100, 0, 250, 7}
	for _, n := range sizes {
		if err := w.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(sizes) {
		t.Fatalf("index has %d entries", len(idx))
	}
	off := int64(0)
	for i, e := range idx {
		if e.Offset != off || e.Length != int64(sizes[i]) {
			t.Fatalf("entry %d = %+v, want offset %d length %d", i, e, off, sizes[i])
		}
		if e.End() != off+int64(sizes[i])+Overhead {
			t.Fatalf("entry %d End = %d", i, e.End())
		}
		off = e.End()
	}
	if idx.TotalBytes() != int64(buf.Len()) {
		t.Fatalf("TotalBytes = %d, want %d", idx.TotalBytes(), buf.Len())
	}
}

func TestBuildIndexEmpty(t *testing.T) {
	idx, err := BuildIndex(nil)
	if err != nil || len(idx) != 0 || idx.TotalBytes() != 0 {
		t.Fatalf("idx=%v err=%v", idx, err)
	}
}

func TestBuildIndexCorruption(t *testing.T) {
	raw := corruptedShard(t, 9)
	if _, err := BuildIndex(raw); !errors.Is(err, ErrBadLengthCRC) {
		t.Fatalf("got %v", err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write([]byte("abc"))
	_ = w.Flush()
	if _, err := BuildIndex(buf.Bytes()[:buf.Len()-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v", err)
	}
}

func TestIndexMatchesReaderOffsets(t *testing.T) {
	err := quick.Check(func(sizes []uint16) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, s := range sizes {
			if err := w.Write(make([]byte, int(s)%5000)); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		idx, err := BuildIndex(buf.Bytes())
		if err != nil || len(idx) != len(sizes) {
			return false
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		for _, e := range idx {
			if r.Offset() != e.Offset {
				return false
			}
			if _, err := r.Next(); err != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriter(b *testing.B) {
	payload := make([]byte, 64*1024)
	w := NewWriter(io.Discard)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReader drains one fresh Reader per 64-record shard, the
// way a loader opens one reader per shard file; one op is one shard.
func BenchmarkReader(b *testing.B) {
	payload := make([]byte, 64*1024)
	raw := shardOf(b, slices.Repeat([][]byte{payload}, 64)...)
	src := bytes.NewReader(raw)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		src.Reset(raw)
		r := NewReader(src)
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
