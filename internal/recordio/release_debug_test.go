//go:build debug

package recordio

import (
	"bytes"
	"io"
	"testing"
)

// TestPayloadPoisonedAfterEOF: once Next returns io.EOF the payload
// buffer is back in bufpool, which poisons it with 0xDB in debug
// builds, so a caller holding a payload past the next Next reads
// garbage loudly rather than stale data quietly.
func TestPayloadPoisonedAfterEOF(t *testing.T) {
	want := bytes.Repeat([]byte{0x11}, 1000)
	r := NewReader(bytes.NewReader(streamOf(t, want)))
	held, err := r.Next()
	if err != nil || !bytes.Equal(held, want) {
		t.Fatalf("first record: %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{0xDB}, len(held))) {
		t.Fatal("payload kept past io.EOF was not poisoned")
	}
}
