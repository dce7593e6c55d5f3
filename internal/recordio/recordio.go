// Package recordio implements MXNet's RecordIO container format, the
// second packed dataset format the paper's introduction names next to
// TFRecords ("optimized data formats, such as TensorFlow's TFRecords,
// MXNet's RecordIO, and HDF5, pack several small-sized files into a
// single, larger one").
//
// MONARCH is format-agnostic — it moves whole files between tiers — so
// supporting a second real on-disk format demonstrates that nothing in
// the middleware depends on TFRecord framing.
//
// On-disk layout of each record:
//
//	uint32 magic   = 0xced7230a           (little endian)
//	uint32 lrecord = cflag<<29 | length   (cflag = continuation flag)
//	byte   data[length]
//	byte   pad[(4 - length%4) % 4]        (zero padding to 4-byte alignment)
//
// This implementation writes single-part records (cflag 0) and rejects
// multi-part records on read; MXNet only emits multi-part framing for
// records larger than the 2^29-byte field, far beyond image sizes.
//
// Reader has the same contract as tfrecord.Reader: the payload Next
// returns is valid only until the next call to Next, and a caller that
// keeps a record copies it (bytes.Clone). A warm Reader allocates
// nothing per record, and its buffers go back to their pools when Next
// returns io.EOF or an error.
package recordio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"monarch/internal/bufpool"
)

// Magic is the per-record marker word.
const Magic uint32 = 0xced7230a

// headerSize is the fixed framing before each payload.
const headerSize = 8

// maxLength is the largest payload a single-part record can hold.
const maxLength = 1<<29 - 1

// Errors returned by Reader.
var (
	// ErrBadMagic reports a corrupted or misaligned record boundary.
	ErrBadMagic = errors.New("recordio: bad magic")
	// ErrTruncated reports a record cut short by EOF.
	ErrTruncated = errors.New("recordio: truncated record")
	// ErrMultiPart reports an unsupported continuation record.
	ErrMultiPart = errors.New("recordio: multi-part records unsupported")
	// ErrTooLarge reports a payload exceeding the length field.
	ErrTooLarge = errors.New("recordio: record exceeds 2^29-1 bytes")
)

// Pad returns the number of zero bytes appended after a payload of n
// bytes.
func Pad(n int64) int64 { return (4 - n%4) % 4 }

// RecordSize returns the on-disk footprint of a payload of n bytes.
func RecordSize(n int64) int64 { return headerSize + n + Pad(n) }

// Writer emits RecordIO framing.
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
	if len(data) > maxLength {
		return ErrTooLarge
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(data); err != nil {
		return err
	}
	var pad [3]byte
	if _, err := w.w.Write(pad[:Pad(int64(len(data)))]); err != nil {
		return err
	}
	w.written += RecordSize(int64(len(data)))
	w.records++
	return nil
}

// Flush drains the internal buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Written returns total bytes emitted (after Flush).
func (w *Writer) Written() int64 { return w.written }

// Records returns the number of records written.
func (w *Writer) Records() int { return w.records }

// Reader iterates records, reusing one payload buffer across records
// (see the package doc for the contract).
type Reader struct {
	src     bufpool.Stream
	scratch [headerSize]byte // header and padding, kept here so they do not escape
	offset  int64
	err     error // first error or io.EOF, returned by every later Next
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: bufpool.NewStream(r)}
}

// Next returns the next payload, or io.EOF cleanly at stream end. The
// returned slice is only valid until the next call to Next, which
// overwrites it. Once Next has returned io.EOF or an error, the Reader
// has given its buffers back to their pools, and every later call
// returns that same error.
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
	if binary.LittleEndian.Uint32(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w at offset %d", ErrBadMagic, r.offset)
	}
	lrecord := binary.LittleEndian.Uint32(hdr[4:])
	if cflag := lrecord >> 29; cflag != 0 {
		return nil, fmt.Errorf("%w (cflag %d at offset %d)", ErrMultiPart, cflag, r.offset)
	}
	length := int64(lrecord & maxLength)
	data, err := r.src.ReadPayload(length)
	if err != nil {
		return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, r.offset)
	}
	if pad := Pad(length); pad > 0 {
		if _, err := r.src.ReadFull(r.scratch[:pad]); err != nil {
			return nil, fmt.Errorf("%w: padding at offset %d", ErrTruncated, r.offset)
		}
	}
	r.offset += RecordSize(length)
	return data, nil
}

// Offset returns the stream offset of the next record.
func (r *Reader) Offset() int64 { return r.offset }

// Entry locates one record in a serialized stream.
type Entry struct {
	Offset int64 // record header offset
	Length int64 // payload length
}

// End returns the offset one past the record (including padding).
func (e Entry) End() int64 { return e.Offset + RecordSize(e.Length) }

// BuildIndex scans a serialized stream and returns its record index.
func BuildIndex(data []byte) ([]Entry, error) {
	var idx []Entry
	off := int64(0)
	for off < int64(len(data)) {
		if off+headerSize > int64(len(data)) {
			return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, off)
		}
		if binary.LittleEndian.Uint32(data[off:off+4]) != Magic {
			return nil, fmt.Errorf("%w at offset %d", ErrBadMagic, off)
		}
		lrecord := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if lrecord>>29 != 0 {
			return nil, fmt.Errorf("%w at offset %d", ErrMultiPart, off)
		}
		e := Entry{Offset: off, Length: int64(lrecord & maxLength)}
		if e.End() > int64(len(data)) {
			return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, off)
		}
		idx = append(idx, e)
		off = e.End()
	}
	return idx, nil
}
