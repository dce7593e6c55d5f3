// Package tfrecord implements TensorFlow's TFRecord container format.
//
// The paper's datasets are ImageNet converted to TFRecords — "optimized
// data formats [that] pack several small-sized files into a single,
// larger one" (§I). MONARCH's headline epoch-1 optimisation (fetch the
// *whole* record file when the framework asks for a slice of it) only
// makes sense against this format, so the reproduction implements it
// for real: examples and tests read and write byte-compatible TFRecord
// files.
//
// On-disk layout of each record:
//
//	uint64 length        (little endian)
//	uint32 masked_crc32c(length)
//	byte   data[length]
//	uint32 masked_crc32c(data)
//
// where masked_crc32c(x) = rotr15(crc32c(x)) + 0xa282ead8, matching
// TensorFlow's record writer.
//
// Reader follows TensorFlow's RecordReader contract: the payload Next
// returns is valid only until the next call to Next, and a caller that
// keeps a record copies it (bytes.Clone). In exchange a warm Reader
// allocates nothing per record: payloads land in one reused buffer and
// the read buffer comes from a pool (bufpool.Stream), and both go back
// to their pools when Next returns io.EOF or an error.
package tfrecord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"monarch/internal/bufpool"
)

// Overhead is the framing overhead per record in bytes.
const Overhead = 8 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Corruption errors returned by Reader.
var (
	// ErrBadLengthCRC reports a corrupted length header.
	ErrBadLengthCRC = errors.New("tfrecord: length CRC mismatch")
	// ErrBadDataCRC reports corrupted record payload.
	ErrBadDataCRC = errors.New("tfrecord: data CRC mismatch")
	// ErrTruncated reports a record cut short by EOF.
	ErrTruncated = errors.New("tfrecord: truncated record")
)

// MaskedCRC computes TensorFlow's masked CRC32-Castagnoli of data.
func MaskedCRC(data []byte) uint32 {
	crc := crc32.Checksum(data, castagnoli)
	return ((crc >> 15) | (crc << 17)) + 0xa282ead8
}

// Writer emits TFRecord framing to an io.Writer.
type Writer struct {
	w       *bufio.Writer
	written int64
	records int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one record.
func (w *Writer) Write(data []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(len(data)))
	binary.LittleEndian.PutUint32(hdr[8:12], MaskedCRC(hdr[:8]))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], MaskedCRC(data))
	if _, err := w.w.Write(foot[:]); err != nil {
		return err
	}
	w.written += int64(len(data)) + Overhead
	w.records++
	return nil
}

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Written returns the total bytes emitted (after Flush).
func (w *Writer) Written() int64 { return w.written }

// Records returns the number of records written.
func (w *Writer) Records() int { return w.records }

// RecordSize returns the on-disk footprint of a payload of n bytes.
func RecordSize(n int64) int64 { return n + Overhead }

// Reader iterates records from an io.Reader, reusing one payload
// buffer across records (see the package doc for the contract).
type Reader struct {
	src     bufpool.Stream
	scratch [12]byte // header and footer, kept here so they do not escape
	offset  int64
	err     error // first error or io.EOF, returned by every later Next
	// Verify controls CRC checking; disabled it still parses framing.
	Verify bool
}

// NewReader wraps r with CRC verification enabled.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: bufpool.NewStream(r), Verify: true}
}

// Next returns the next record payload, or io.EOF cleanly at the end of
// the stream. The returned slice is only valid until the next call to
// Next, which overwrites it. Once Next has returned io.EOF or an error,
// the Reader has given its buffers back to their pools, and every later
// call returns that same error.
func (r *Reader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	data, err := r.next()
	if err != nil {
		r.err = err
		r.src.Release()
		return nil, err
	}
	return data, nil
}

func (r *Reader) next() ([]byte, error) {
	hdr := r.scratch[:]
	n, err := r.src.ReadFull(hdr)
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, r.offset)
	}
	length := binary.LittleEndian.Uint64(hdr[:8])
	if r.Verify && binary.LittleEndian.Uint32(hdr[8:12]) != MaskedCRC(hdr[:8]) {
		return nil, fmt.Errorf("%w at offset %d", ErrBadLengthCRC, r.offset)
	}
	if length > 1<<40 {
		return nil, fmt.Errorf("tfrecord: implausible record length %d at offset %d", length, r.offset)
	}
	data, err := r.src.ReadPayload(int64(length))
	if err != nil {
		return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, r.offset)
	}
	foot := r.scratch[:4]
	if _, err := r.src.ReadFull(foot); err != nil {
		return nil, fmt.Errorf("%w: footer at offset %d", ErrTruncated, r.offset)
	}
	if r.Verify && binary.LittleEndian.Uint32(foot) != MaskedCRC(data) {
		return nil, fmt.Errorf("%w at offset %d", ErrBadDataCRC, r.offset)
	}
	r.offset += int64(length) + Overhead
	return data, nil
}

// Offset returns the stream offset of the next record.
func (r *Reader) Offset() int64 { return r.offset }

// Entry locates one record inside a shard file.
type Entry struct {
	Offset int64 // offset of the record header
	Length int64 // payload length (without framing)
}

// End returns the offset one past the record's footer.
func (e Entry) End() int64 { return e.Offset + e.Length + Overhead }

// Index lists the records of a shard in file order. TensorFlow keeps an
// equivalent structure implicitly by reading shards sequentially; the
// simulation uses the explicit index to know which 256 KiB pread
// touches which record.
type Index []Entry

// BuildIndex scans a serialized shard and returns its index.
func BuildIndex(data []byte) (Index, error) {
	var idx Index
	off := int64(0)
	for off < int64(len(data)) {
		if off+12 > int64(len(data)) {
			return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, off)
		}
		length := int64(binary.LittleEndian.Uint64(data[off : off+8]))
		if binary.LittleEndian.Uint32(data[off+8:off+12]) != MaskedCRC(data[off:off+8]) {
			return nil, fmt.Errorf("%w at offset %d", ErrBadLengthCRC, off)
		}
		if off+length+Overhead > int64(len(data)) {
			return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, off)
		}
		payload := data[off+12 : off+12+length]
		if binary.LittleEndian.Uint32(data[off+12+length:off+length+Overhead]) != MaskedCRC(payload) {
			return nil, fmt.Errorf("%w at offset %d", ErrBadDataCRC, off)
		}
		idx = append(idx, Entry{Offset: off, Length: length})
		off += length + Overhead
	}
	return idx, nil
}

// TotalBytes returns the serialized size of all indexed records.
func (idx Index) TotalBytes() int64 {
	if len(idx) == 0 {
		return 0
	}
	last := idx[len(idx)-1]
	return last.End()
}
