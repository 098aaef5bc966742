package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/eventlog"
)

// The one binary encoding of a record stream — a trace file and a TCP
// connection carry the same bytes. A stream is FrameMagic followed by frames;
// a frame is a chunk of records laid out in columns:
//
//	header   rows u32, body length u32                    little-endian
//	deltas   tenants, variables, components, messages: the strings first
//	         seen since the previous frame — uvarint count, then uvarint
//	         length + bytes each; a string's id is its position in its list
//	columns  kind u8      × rows     0 error, 1 sample, 2 failure mark
//	         tenant id    × rows
//	         time f64     × rows
//	         key id       × rows     variable (sample) or component (error)
//	         value f64    × samples
//	         type u32, severity u8, message id   × errors, a column each
//
// and the body length is exactly what that takes. An id column is 1, 2 or 4
// bytes wide: as narrow as the dictionary it indexes allows once this frame's
// delta is in. Rows keep the order they were added in, failure marks in
// place; a one-row frame is legal, which is how Flush bounds a live sender's
// latency. Only FrameEncoder (under fleet.Writer and ColumnarTrace.WriteTo)
// and FrameDecoder (under fleet.Reader and ReadColumnar) know this layout.

// FrameMagic prefixes every frame stream.
const FrameMagic = "PFF1"

const (
	// kindMark is a failure mark's kind code, beside uint8(KindError) and
	// uint8(KindSample).
	kindMark = 2
	// frameRows is a full frame: the listener's slab, so that a frame off a
	// busy connection fills exactly one hand-off.
	frameRows = 128
	// maxFrameString caps a dictionary string — far above any real name or
	// message, low enough that neither side holds a corrupt one.
	maxFrameString = 1 << 20

	// The four dictionaries, in the order their deltas travel.
	dictTenant, dictVar, dictComp, dictMsg = 0, 1, 2, 3
)

func idWidth(dictLen int) int {
	switch {
	case dictLen <= 1<<8:
		return 1
	case dictLen <= 1<<16:
		return 2
	}
	return 4
}

func appendIDs(b []byte, ids []uint32, width int) []byte {
	for _, id := range ids { // little-endian, cut to the column's width
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))[:len(b)+width]
	}
	return b
}

// widen spreads an id column into dst and returns the first row whose id is
// not below limit, or -1.
func widen(dst []uint32, col []byte, width, limit int) int {
	bad := -1
	for i := len(dst) - 1; i >= 0; i-- {
		if dst[i] = idAt(col, i, width); int(dst[i]) >= limit {
			bad = i
		}
	}
	return bad
}

func idAt(col []byte, i, width int) uint32 {
	switch width {
	case 1:
		return uint32(col[i])
	case 2:
		return uint32(binary.LittleEndian.Uint16(col[2*i:]))
	}
	return binary.LittleEndian.Uint32(col[4*i:])
}

// FrameEncoder turns records into frames. The zero value is ready. It refuses
// what FrameDecoder would refuse, so that a stream it wrote always reads back.
type FrameEncoder struct {
	started bool
	dicts   [4]eventlog.Interner
	sent    [4]int // dictionary entries already on the stream
	// The pending rows: fixed-width columns as the bytes they travel as, id
	// columns as ids until Flush knows their width.
	kinds, times, values, types, sevs []byte
	tenant, keys, msgs                []uint32
	buf                               []byte
	written                           int64 // bytes handed to the writers so far
}

// Add appends one record — a failure mark (only tenant and ev.Time count), an
// error report or a sample — and writes a frame to w once frameRows are pending.
func (e *FrameEncoder) Add(w io.Writer, tenant string, ev Event, failure bool) error {
	if math.IsNaN(ev.Time) {
		return fmt.Errorf("%w: record time is NaN", ErrColumnar)
	}
	kind, keyDict, key, msg := byte(kindMark), dictVar, "", ""
	switch {
	case failure:
	case ev.Kind == KindSample:
		kind, key = byte(KindSample), ev.Variable
	case ev.Kind == KindError:
		kind, keyDict, key, msg = byte(KindError), dictComp, ev.Error.Component, ev.Error.Message
		if s := ev.Error.Severity; s < eventlog.SeverityInfo || s > eventlog.SeverityCritical {
			return fmt.Errorf("%w: severity %d", ErrColumnar, s)
		}
		if ev.Error.Type < 0 || ev.Error.Type > math.MaxInt32 {
			return fmt.Errorf("%w: error type %d out of range", ErrColumnar, ev.Error.Type)
		}
	default:
		return fmt.Errorf("%w: event kind %d", ErrColumnar, ev.Kind)
	}
	if max(len(tenant), len(key), len(msg)) > maxFrameString {
		return fmt.Errorf("%w: string longer than %d bytes", ErrColumnar, maxFrameString)
	}
	e.kinds = append(e.kinds, kind)
	e.tenant = append(e.tenant, e.dicts[dictTenant].Intern(tenant))
	e.times = binary.LittleEndian.AppendUint64(e.times, math.Float64bits(ev.Time))
	switch kind {
	case kindMark:
		e.keys = append(e.keys, 0)
	case byte(KindSample):
		e.keys = append(e.keys, e.dicts[keyDict].Intern(key))
		e.values = binary.LittleEndian.AppendUint64(e.values, math.Float64bits(ev.Value))
	default:
		e.keys = append(e.keys, e.dicts[keyDict].Intern(key))
		e.types = binary.LittleEndian.AppendUint32(e.types, uint32(ev.Error.Type))
		e.sevs = append(e.sevs, byte(ev.Error.Severity))
		e.msgs = append(e.msgs, e.dicts[dictMsg].Intern(msg))
	}
	if len(e.kinds) == frameRows {
		return e.Flush(w)
	}
	return nil
}

// Flush encodes the pending rows, however few, as one frame and writes it to
// w with a single Write — after the magic, if the stream has not begun: an
// empty stream is a valid one.
func (e *FrameEncoder) Flush(w io.Writer) error {
	b := e.buf[:0]
	if !e.started {
		b, e.started = append(b, FrameMagic...), true
	}
	if rows := len(e.kinds); rows > 0 {
		header := len(b)
		b = append(b, make([]byte, 8)...)
		for k := range e.dicts {
			strs := e.dicts[k].Strings()
			b = binary.AppendUvarint(b, uint64(len(strs)-e.sent[k]))
			for _, s := range strs[e.sent[k]:] {
				b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
			}
			e.sent[k] = len(strs)
		}
		b = append(b, e.kinds...)
		b = appendIDs(b, e.tenant, idWidth(e.sent[dictTenant]))
		b = append(b, e.times...)
		b = appendIDs(b, e.keys, idWidth(max(e.sent[dictVar], e.sent[dictComp])))
		b = append(append(append(b, e.values...), e.types...), e.sevs...)
		b = appendIDs(b, e.msgs, idWidth(e.sent[dictMsg]))
		binary.LittleEndian.PutUint32(b[header:], uint32(rows))
		binary.LittleEndian.PutUint32(b[header+4:], uint32(len(b)-header-8))
		e.kinds, e.times, e.values, e.types, e.sevs = e.kinds[:0], e.times[:0], e.values[:0], e.types[:0], e.sevs[:0]
		e.tenant, e.keys, e.msgs = e.tenant[:0], e.keys[:0], e.msgs[:0]
	}
	e.buf = b
	n, err := w.Write(b)
	e.written += int64(n)
	return err
}

// FrameDecoder reads a frame stream one frame at a time into columns it
// reuses: past the dictionaries' growth a frame decodes without allocating.
// It trusts nothing it reads: every count and length is a claim checked
// against the bytes in hand before memory is committed to it, so what a
// stream makes the decoder hold is proportional to the bytes it sent.
type FrameDecoder struct {
	started bool
	tenants []string
	// rows holds the current frame — Kinds may be kindMark, Failures is
	// unused — and the other three dictionaries; tenant is its tenant column.
	rows   ColumnarTrace
	tenant []uint32
	// countOnly makes Next skip the bodies and add up in counted the rows
	// their headers announce, each held to its body's length.
	countOnly bool
	counted   int
}

// Len returns the number of rows in the current frame.
func (d *FrameDecoder) Len() int { return len(d.tenant) }

// Record copies row i of the current frame, i in [0, Len()), into ev — the
// strings are the dictionaries' own — and returns its tenant and whether it
// is a failure mark, of which only ev.Time counts.
func (d *FrameDecoder) Record(i int, ev *Event) (tenant string, failure bool) {
	r := &d.rows
	// Field by field: an Event is 104 bytes, and building one to copy it
	// over *ev costs more than the decode of its row.
	ev.Kind, ev.Time, ev.Error, ev.Variable, ev.Value = KindError, r.Times[i], eventlog.Event{}, "", 0
	switch r.Kinds[i] {
	case kindMark:
		failure = true
	case uint8(KindSample):
		ev.Kind, ev.Variable, ev.Value = KindSample, r.Vars[r.Keys[i]], r.Values[i]
	default:
		ev.Error.Time, ev.Error.Component, ev.Error.Message = r.Times[i], r.Components[r.Keys[i]], r.Messages[r.Msgs[i]]
		ev.Error.Type, ev.Error.Severity = int(r.Types[i]), eventlog.Severity(r.Sevs[i])
	}
	return d.tenants[d.tenant[i]], failure
}

// Next replaces the current frame with the stream's next one, decoded in
// place from br's buffer — br must not be read between calls. It returns
// br's own error, io.EOF at a clean end, when the stream ends on a frame
// boundary, and an ErrColumnar when it ends anywhere else or is malformed.
func (d *FrameDecoder) Next(br *bufio.Reader) error {
	if !d.started {
		magic, err := br.Peek(len(FrameMagic))
		switch m := string(magic); {
		case err != nil:
			return fmt.Errorf("%w: missing magic: %v", ErrColumnar, err)
		case m == "PFW1" || m == "PFC1":
			return fmt.Errorf("%w: the %s format was retired in PR 22, regenerate with `loggen`", ErrColumnar, m)
		case m != FrameMagic:
			return fmt.Errorf("%w: bad magic %q (want %q)", ErrColumnar, m, FrameMagic)
		}
		br.Discard(len(FrameMagic))
		d.started = true
	}
	header, err := br.Peek(8)
	if len(header) == 0 {
		return err
	}
	if err != nil {
		return fmt.Errorf("%w: truncated frame header: %v", ErrColumnar, err)
	}
	rows, size := int(binary.LittleEndian.Uint32(header)), int(binary.LittleEndian.Uint32(header[4:]))
	br.Discard(8)
	if d.countOnly {
		if _, err := br.Discard(size); err != nil {
			return err
		}
		d.counted += min(rows, size) // only now: the body's bytes were there
		return nil
	}
	inPlace := size <= br.Size()
	var body []byte
	if inPlace {
		body, err = br.Peek(size)
	} else {
		body, err = readLong(br, size)
	}
	if err != nil {
		return fmt.Errorf("%w: truncated frame: %v", ErrColumnar, err)
	}
	err = d.decode(body, rows)
	if inPlace {
		br.Discard(size)
	}
	return err
}

// readLong assembles a frame body longer than br's buffer: the copy grows as
// the bytes arrive, never to the announced size on the header's word.
func readLong(br *bufio.Reader, size int) ([]byte, error) {
	var body []byte
	for len(body) < size {
		chunk, err := br.Peek(min(size-len(body), br.Size()))
		if err != nil {
			return nil, err
		}
		body = append(body, chunk...)
		br.Discard(len(chunk))
	}
	return body, nil
}

// readDelta appends one dictionary's new strings and returns the bytes after
// them. The count is only a claim: a string is added once its bytes are seen.
func readDelta(b []byte, dict *[]string) ([]byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad dictionary count", ErrColumnar)
	}
	for b = b[n:]; count > 0; count-- {
		size, n := binary.Uvarint(b)
		switch {
		case n <= 0:
			return nil, fmt.Errorf("%w: bad string length", ErrColumnar)
		case size > maxFrameString:
			return nil, fmt.Errorf("%w: string length %d exceeds cap", ErrColumnar, size)
		case size > uint64(len(b)-n):
			return nil, fmt.Errorf("%w: string runs past its frame", ErrColumnar)
		}
		*dict = append(*dict, string(b[n:n+int(size)]))
		b = b[n+int(size):]
	}
	return b, nil
}

// decode replaces the current frame with the one in body.
func (d *FrameDecoder) decode(body []byte, n int) error {
	r := &d.rows
	d.tenant = d.tenant[:0] // no current frame unless this one decodes
	var err error
	for _, dict := range [...]*[]string{dictTenant: &d.tenants, dictVar: &r.Vars, dictComp: &r.Components, dictMsg: &r.Messages} {
		if body, err = readDelta(body, dict); err != nil {
			return err
		}
	}
	if n > len(body) {
		return fmt.Errorf("%w: %d rows announced in %d bytes", ErrColumnar, n, len(body))
	}
	nSamples, nErrors := 0, 0
	for _, k := range body[:n] {
		switch k {
		case uint8(KindSample):
			nSamples++
		case uint8(KindError):
			nErrors++
		case kindMark:
		default:
			return fmt.Errorf("%w: kind %d", ErrColumnar, k)
		}
	}
	wTenant, wMsg := idWidth(len(d.tenants)), idWidth(len(r.Messages))
	wKey := idWidth(max(len(r.Vars), len(r.Components)))
	if want := n*(1+wTenant+8+wKey) + nSamples*8 + nErrors*(4+1+wMsg); want != len(body) {
		return fmt.Errorf("%w: frame body is %d bytes, its %d rows take %d", ErrColumnar, len(body), n, want)
	}
	cut := func(size int) (col []byte) {
		col, body = body[:size], body[size:]
		return col
	}
	kinds, tenants, times, keys := cut(n), cut(n*wTenant), cut(n*8), cut(n*wKey)
	values, types, sevs, msgs := cut(nSamples*8), cut(nErrors*4), cut(nErrors), cut(nErrors*wMsg)

	tenant := slices.Grow(d.tenant, n)[:n]
	r.Times, r.Kinds, r.Keys = slices.Grow(r.Times[:0], n)[:n], slices.Grow(r.Kinds[:0], n)[:n], slices.Grow(r.Keys[:0], n)[:n]
	r.Types, r.Sevs, r.Msgs = slices.Grow(r.Types[:0], n)[:n], slices.Grow(r.Sevs[:0], n)[:n], slices.Grow(r.Msgs[:0], n)[:n]
	r.Values = slices.Grow(r.Values[:0], n)[:n]
	bad := func(row int, what string, v any) error {
		return fmt.Errorf("%w: row %d: %s %v out of range", ErrColumnar, row, what, v)
	}
	// The dense columns, a pass each.
	copy(r.Kinds, kinds)
	for i := range r.Times {
		t := math.Float64frombits(binary.LittleEndian.Uint64(times[8*i:]))
		if t != t {
			return bad(i, "time", t)
		}
		r.Times[i] = t
	}
	if i := widen(tenant, tenants, wTenant, len(d.tenants)); i >= 0 {
		return bad(i, "tenant id", tenant[i])
	}
	widen(r.Keys, keys, wKey, math.MaxInt)
	// The sparse columns, dealt out to the rows of their kind, whose
	// dictionary the row's key is held to.
	clear(r.Types)
	clear(r.Sevs)
	clear(r.Msgs)
	clear(r.Values)
	s, e := 0, 0
	for i, kind := range kinds {
		switch EventKind(kind) {
		case KindSample:
			if int(r.Keys[i]) >= len(r.Vars) {
				return bad(i, "variable id", r.Keys[i])
			}
			r.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(values[8*s:]))
			s++
		case KindError:
			typ, sev, msg := binary.LittleEndian.Uint32(types[4*e:]), sevs[e], idAt(msgs, e, wMsg)
			e++
			switch {
			case int(r.Keys[i]) >= len(r.Components):
				return bad(i, "component id", r.Keys[i])
			case typ > math.MaxInt32:
				return bad(i, "error type", typ)
			case sev < uint8(eventlog.SeverityInfo) || sev > uint8(eventlog.SeverityCritical):
				return bad(i, "severity", sev)
			case int(msg) >= len(r.Messages):
				return bad(i, "message id", msg)
			}
			r.Types[i], r.Sevs[i], r.Msgs[i] = int32(typ), sev, msg
		} // a failure mark has neither; its key cell is padding, never read

	}
	d.tenant = tenant
	return nil
}
