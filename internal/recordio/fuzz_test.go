package recordio

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the RecordIO reader: no panics,
// agreement with BuildIndex on stream validity, and every payload equal,
// byte for byte, to the slice of the input it was framed in.
func FuzzReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.Write([]byte("one"))
	_ = w.Write(nil)
	_ = w.Write(bytes.Repeat([]byte{9}, 100))
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:6])
	corrupted := append([]byte(nil), valid.Bytes()...)
	corrupted[0] ^= 1
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, idxErr := BuildIndex(data)
		r := NewReader(bytes.NewReader(data))
		records := 0
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
			if want := data[off+headerSize : off+headerSize+int64(len(payload))]; !bytes.Equal(payload, want) {
				t.Fatalf("record %d at offset %d: payload differs from the input", records, off)
			}
			if records < len(idx) {
				e := idx[records]
				if !bytes.Equal(payload, data[e.Offset+headerSize:e.Offset+headerSize+e.Length]) {
					t.Fatalf("record %d: payload differs from index entry %+v", records, e)
				}
			}
			records++
		}
		if idxErr == nil && readErr != nil {
			t.Fatalf("index accepted stream the reader rejected: %v", readErr)
		}
		if idxErr == nil && records != len(idx) {
			t.Fatalf("reader found %d records, index %d", records, len(idx))
		}
	})
}
