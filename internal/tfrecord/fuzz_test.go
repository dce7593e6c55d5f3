package tfrecord

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the record reader: it must never
// panic and must either parse records consistently with BuildIndex or
// report a typed corruption error. Every payload must equal, byte for
// byte, the slice of the input it was framed in, which catches a reused
// buffer that leaks bytes from an earlier record.
func FuzzReader(f *testing.F) {
	// Seed corpus: valid streams and near-miss corruptions.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.Write([]byte("record-one"))
	_ = w.Write(nil)
	_ = w.Write(bytes.Repeat([]byte{0xAB}, 300))
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:5])
	corrupted := append([]byte(nil), valid.Bytes()...)
	corrupted[9] ^= 0xFF
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, idxErr := BuildIndex(data)

		r := NewReader(bytes.NewReader(data))
		var records int
		var readErr error
		for {
			off := r.Offset()
			payload, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			if want := data[off+12 : off+12+int64(len(payload))]; !bytes.Equal(payload, want) {
				t.Fatalf("record %d at offset %d: payload differs from the input", records, off)
			}
			if records < len(idx) {
				e := idx[records]
				if !bytes.Equal(payload, data[e.Offset+12:e.Offset+12+e.Length]) {
					t.Fatalf("record %d: payload differs from index entry %+v", records, e)
				}
			}
			records++
		}
		// BuildIndex and Reader must agree on whether the stream is
		// fully valid.
		if idxErr == nil && readErr != nil {
			t.Fatalf("index accepted stream the reader rejected: %v", readErr)
		}
		if idxErr == nil && records != len(idx) {
			t.Fatalf("reader found %d records, index %d", records, len(idx))
		}
	})
}
