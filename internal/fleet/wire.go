package fleet

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"

	"repro/internal/eventlog"
	"repro/internal/runtime"
)

// Compact binary wire format for multi-tenant traces — the line-rate
// replay path. Layout:
//
//	magic "PFW1" (4 bytes), then a frame stream. Every frame starts with a
//	one-byte type; integers are unsigned varints, floats are 8-byte
//	little-endian IEEE 754.
//
//	0x01 defTenant: id, len, bytes     — dictionary: tenant id → string
//	0x02 defVar:    id, len, bytes     — dictionary: variable id → string
//	0x03 sample:    tenantID, varID, time f64, value f64
//	0x04 error:     tenantID, time f64, type, severity u8, complen,
//	                component bytes, msglen, message bytes
//	0x05 failure:   tenantID, time f64
//
// Writers emit a def frame the first time a tenant or variable appears, so
// hot tenants cost two varints + two floats per sample instead of repeating
// their name. Readers reject unknown frame types, undefined dictionary ids,
// truncation, and absurd lengths — and never panic on malformed input
// (fuzz-verified, see FuzzWireDecode).

// WireMagic prefixes every wire-format trace.
const WireMagic = "PFW1"

const (
	frameDefTenant = 0x01
	frameDefVar    = 0x02
	frameSample    = 0x03
	frameError     = 0x04
	frameFailure   = 0x05
)

// maxWireString caps dictionary/message lengths — far above any real
// payload, low enough that a corrupt length cannot drive a huge allocation.
const maxWireString = 1 << 20

// Writer encodes records into the wire format.
type Writer struct {
	w       *bufio.Writer
	tenants map[string]uint64
	vars    map[string]uint64
	scratch [binary.MaxVarintLen64]byte
	err     error
}

// NewWriter starts a wire-format stream on w (the magic is written
// immediately; check Flush for the final error).
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	wr := &Writer{w: bw, tenants: make(map[string]uint64), vars: make(map[string]uint64)}
	_, wr.err = bw.WriteString(WireMagic)
	return wr
}

func (w *Writer) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.scratch[:], v)
	_, w.err = w.w.Write(w.scratch[:n])
}

func (w *Writer) f64(v float64) {
	if w.err != nil {
		return
	}
	// Through scratch, not a local array: a local one escapes to the heap on
	// its way into Write — an allocation per float.
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(v))
	_, w.err = w.w.Write(w.scratch[:8])
}

func (w *Writer) byte1(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.w.WriteByte(b)
}

func (w *Writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// internID returns the dictionary id for name, emitting a def frame on
// first use.
func (w *Writer) internID(dict map[string]uint64, frame byte, name string) uint64 {
	if id, ok := dict[name]; ok {
		return id
	}
	id := uint64(len(dict))
	dict[name] = id
	w.byte1(frame)
	w.uvarint(id)
	w.str(name)
	return id
}

// Write encodes one record.
func (w *Writer) Write(rec Record) error {
	ev := rec.Event
	tid := w.internID(w.tenants, frameDefTenant, ev.Tenant)
	switch {
	case rec.Failure:
		w.byte1(frameFailure)
		w.uvarint(tid)
		w.f64(ev.Time)
	case ev.Kind == runtime.KindError:
		w.byte1(frameError)
		w.uvarint(tid)
		w.f64(ev.Time)
		w.uvarint(uint64(ev.Error.Type))
		w.byte1(byte(ev.Error.Severity))
		w.str(ev.Error.Component)
		w.str(ev.Error.Message)
	default:
		vid := w.internID(w.vars, frameDefVar, ev.Variable)
		w.byte1(frameSample)
		w.uvarint(tid)
		w.uvarint(vid)
		w.f64(ev.Time)
		w.f64(ev.Value)
	}
	return w.err
}

// Flush drains the buffer and returns the first write error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// WriteWire encodes a whole trace.
func WriteWire(w io.Writer, recs []Record) error {
	wr := NewWriter(w)
	for _, r := range recs {
		if err := wr.Write(r); err != nil {
			return err
		}
	}
	return wr.Flush()
}

// wireBufSize is the read buffer behind a Reader: large enough that one
// read(2) on a socket carries a few thousand frames.
const wireBufSize = 64 << 10

// Reader decodes a wire-format trace as a Source. Frames are parsed in place
// from the bufio.Reader's buffered bytes — no copy, no per-byte interface
// call, no allocation for a sample or failure frame; a frame longer than the
// buffer — one holding a string that long — takes the copying path
// (longFrame).
type Reader struct {
	r       *bufio.Reader
	win     []byte // undecoded bytes, aliasing r's buffer
	peeked  int    // len(win) when it was peeked; peeked-len(win) bytes await Discard
	tenants []string
	vars    []string
	// One-entry caches for the error-frame strings: bursts repeat their
	// component and message. Bounded by construction — no per-connection
	// interner grows on untrusted input.
	lastComp, lastMsg string
	started           bool
}

// NewReader decodes the stream (the magic is checked on the first Next). A
// *bufio.Reader of at least wireBufSize is used as is, not wrapped.
func NewReader(r io.Reader) *Reader { return newReaderSize(r, wireBufSize) }

func newReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// frameCursor walks one frame's bytes. It is sticky like Writer: once the
// bytes run out (need > 0: the frame takes at least that many in total) or a
// value is malformed (err), the cursor is emptied, so every further read
// comes up short, yields zero and changes nothing — the hot path carries no
// "already failed?" checks, only the one a frame makes before it commits.
type frameCursor struct {
	b    []byte
	off  int
	need int
	err  error
}

func (c *frameCursor) done() bool { return c.need != 0 || c.err != nil }

// short and fail end the walk; only the first call's verdict is kept.
func (c *frameCursor) short(need int) {
	if !c.done() {
		c.need = need
	}
	c.b, c.off = nil, 0
}

func (c *frameCursor) fail(format string, args ...any) {
	if !c.done() {
		c.err = badRecord(format, args...)
	}
	c.b, c.off = nil, 0
}

// take returns the next n bytes, or nil when they are not all there.
func (c *frameCursor) take(n int) []byte {
	if len(c.b)-c.off < n {
		c.short(c.off + n)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *frameCursor) byte1() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *frameCursor) uvarint() uint64 {
	if c.off < len(c.b) && c.b[c.off] < 0x80 { // one-byte ids are the hot case
		c.off++
		return uint64(c.b[c.off-1])
	}
	v, n := binary.Uvarint(c.b[c.off:])
	switch {
	case n > 0:
		c.off += n
	case n == 0:
		c.short(len(c.b) + 1)
	default:
		c.fail("wire: varint overflows 64 bits")
	}
	return v
}

func (c *frameCursor) f64() float64 {
	if b := c.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// str returns a length-prefixed string's bytes (aliasing b).
func (c *frameCursor) str() []byte {
	n := c.uvarint()
	if n > maxWireString {
		c.fail("wire: string length %d exceeds cap", n)
		return nil
	}
	return c.take(int(n))
}

// lookup resolves a dictionary id.
func (c *frameCursor) lookup(dict []string, what string) string {
	id := c.uvarint()
	if id >= uint64(len(dict)) {
		c.fail("wire: undefined %s id %d", what, id)
		return ""
	}
	return dict[id]
}

// define appends a dictionary entry; ids must arrive densely in order (the
// writer's allocation scheme), which makes corrupt streams fail fast.
func (c *frameCursor) define(dict *[]string, what string) {
	if id := c.uvarint(); id != uint64(len(*dict)) {
		c.fail("wire: %s id %d out of order (want %d)", what, id, len(*dict))
	}
	if s := c.str(); !c.done() {
		*dict = append(*dict, string(s))
	}
}

// cached returns b as a string, reusing *last when it already spells b.
func cached(last *string, b []byte) string {
	if string(b) != *last { // the comparison does not allocate
		*last = string(b)
	}
	return *last
}

// frame decodes the frame at c.b's head into rec, field by field (a Record
// is 120 bytes: building it elsewhere and copying it in costs more than the
// parse). With c not done afterwards the frame took c.off bytes: isRec says
// whether rec holds a record or the frame only defined a dictionary entry.
// A short or malformed frame leaves the Reader untouched, so the same bytes
// can be offered again with more behind them; rec is then garbage.
func (r *Reader) frame(c *frameCursor, rec *Record) (isRec bool) {
	switch kind := c.byte1(); kind {
	case frameDefTenant:
		c.define(&r.tenants, "tenant")
	case frameDefVar:
		c.define(&r.vars, "variable")
	case frameSample:
		*rec = Record{}
		ev := &rec.Event
		ev.Kind = runtime.KindSample
		ev.Tenant = c.lookup(r.tenants, "tenant")
		ev.Variable = c.lookup(r.vars, "variable")
		ev.Time = c.f64()
		ev.Value = c.f64()
		return true
	case frameError:
		*rec = Record{}
		ev := &rec.Event
		ev.Kind = runtime.KindError
		ev.Tenant = c.lookup(r.tenants, "tenant")
		ev.Time = c.f64()
		ev.Error.Time = ev.Time
		typ := c.uvarint()
		if typ > math.MaxInt32 {
			c.fail("wire: error type %d out of range", typ)
		}
		ev.Error.Type = int(typ)
		ev.Error.Severity = eventlog.Severity(c.byte1())
		comp, msg := c.str(), c.str()
		if c.done() {
			return false
		}
		ev.Error.Component = cached(&r.lastComp, comp)
		ev.Error.Message = cached(&r.lastMsg, msg)
		return true
	case frameFailure:
		*rec = Record{Failure: true}
		rec.Event.Tenant = c.lookup(r.tenants, "tenant")
		rec.Event.Time = c.f64()
		return true
	default:
		c.fail("wire: unknown frame type 0x%02x", kind)
	}
	return false
}

// Next decodes the next record (io.EOF cleanly at end of stream).
func (r *Reader) Next() (rec Record, err error) {
	if !r.started {
		magic, err := r.r.Peek(len(WireMagic))
		if err != nil {
			return Record{}, badRecord("wire: missing magic: %v", err)
		}
		if string(magic) != WireMagic {
			return Record{}, badRecord("wire: bad magic %q", magic)
		}
		r.r.Discard(len(WireMagic))
		r.started = true
	}
	for {
		c := frameCursor{b: r.win}
		isRec := r.frame(&c, &rec)
		switch {
		case c.err != nil:
			return Record{}, c.err
		case c.need == 0:
			r.win = r.win[c.off:]
			if isRec {
				return rec, nil
			}
		case c.need > r.r.Size():
			isRec, err := r.longFrame(c.need, &rec)
			if err != nil {
				return Record{}, err
			}
			if isRec {
				return rec, nil
			}
		default:
			if err := r.fill(c.need); err != nil {
				return Record{}, err
			}
		}
	}
}

// release gives the window's consumed prefix back to the bufio.Reader, whose
// read position is then the head of the undecoded frame.
func (r *Reader) release() {
	r.r.Discard(r.peeked - len(r.win))
	r.win, r.peeked = nil, 0
}

// fill makes the window at least need bytes long (need ≤ the buffer size)
// and as long as one read allows. With nothing left at a frame boundary it
// returns the reader's own error — io.EOF at a clean end of stream.
func (r *Reader) fill(need int) error {
	partial := len(r.win) > 0
	r.release()
	if _, err := r.r.Peek(need); err != nil {
		if !partial {
			return err
		}
		return badRecord("wire: truncated frame: %v", err)
	}
	r.win, _ = r.r.Peek(r.r.Buffered())
	r.peeked = len(r.win)
	return nil
}

// longFrame decodes a frame longer than the read buffer, which cannot be
// parsed in place: its bytes are assembled in a scratch slice,
// need at a time. Every need is a lower bound on the frame's length, so the
// scratch never reaches into the next frame.
func (r *Reader) longFrame(need int, rec *Record) (isRec bool, err error) {
	r.release()
	var big []byte
	for {
		have := len(big)
		big = append(big, make([]byte, need-have)...)
		if _, err := io.ReadFull(r.r, big[have:]); err != nil {
			return false, badRecord("wire: truncated frame: %v", err)
		}
		c := frameCursor{b: big}
		isRec = r.frame(&c, rec)
		switch {
		case c.err != nil:
			return false, c.err
		case c.need == 0:
			return isRec, nil
		}
		need = c.need
	}
}

var _ Source = (*Reader)(nil)
var _ Source = (*TailSource)(nil)
var _ Source = (*SliceSource)(nil)
