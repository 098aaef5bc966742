package fleet

import (
	"bufio"
	"errors"
	"io"

	"repro/internal/ingest"
	"repro/internal/runtime"
)

// The binary encoding of a multi-tenant trace — the line-rate path, on disk
// (loggen's .wire) and over TCP (ListenSource) alike — is the frame stream of
// runtime/frame.go: a dictionary delta and fixed-width column blocks per
// chunk of up to 128 records. Writer and Reader are that codec's
// record-at-a-time ends; runtime.ReadColumnar loads a one-tenant stream whole.

// WireMagic prefixes every wire-format trace.
const WireMagic = runtime.FrameMagic

// Writer encodes records into the wire format.
type Writer struct {
	w   io.Writer
	enc runtime.FrameEncoder
	err error
}

// NewWriter starts a wire-format stream on w. Nothing is written before the
// first full frame or Flush, whose error is the stream's.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write encodes one record; every 128th completes a frame, which goes out in
// one Write. The first error — a record the format cannot carry, or the
// writer's — ends the stream: every later call returns it.
func (w *Writer) Write(rec ingest.Record) error {
	if w.err == nil {
		w.err = w.enc.Add(w.w, rec)
	}
	return w.err
}

// Flush sends the records written so far, however few, as one frame: what a
// live sender calls to bound its latency.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.enc.Flush(w.w)
	}
	return w.err
}

// WriteWire encodes a whole trace.
func WriteWire(w io.Writer, recs []ingest.Record) error {
	wr := NewWriter(w)
	for _, r := range recs {
		if err := wr.Write(r); err != nil {
			return err
		}
	}
	return wr.Flush()
}

// wireBufSize is the read buffer behind a Reader: large enough that one
// read(2) on a socket carries a couple of dozen full frames.
const wireBufSize = 64 << 10

// maxWireString caps a text-protocol line, as the frame format caps a string:
// far above any real payload, low enough that a corrupt stream cannot drive a
// huge allocation.
const maxWireString = 1 << 20

// Reader decodes a wire-format trace as a Source: a frame at a time, in place
// from the bufio.Reader's buffer into the decoder's reusable columns, and
// from there a record a call. Nothing allocates but a string new to the
// stream's dictionaries and a frame longer than the buffer.
type Reader struct {
	r   *bufio.Reader
	dec runtime.FrameDecoder
	row int
}

// NewReader decodes the stream (the magic is checked on the first Next). A
// *bufio.Reader of at least wireBufSize is used as is, not wrapped.
func NewReader(r io.Reader) *Reader { return newReaderSize(r, wireBufSize) }

func newReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// Next decodes the next record (io.EOF cleanly at end of stream).
func (r *Reader) Next() (rec ingest.Record, err error) {
	for r.row == r.dec.Len() {
		r.row = 0
		if err := r.dec.Next(r.r); err != nil {
			if errors.Is(err, runtime.ErrColumnar) {
				err = badRecord("wire: %v", err)
			}
			return ingest.Record{}, err
		}
	}
	r.dec.Record(r.row, &rec)
	r.row++
	return rec, nil
}

var _ Source = (*Reader)(nil)
var _ Source = (*TailSource)(nil)
var _ Source = (*SliceSource)(nil)
