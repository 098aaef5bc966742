package fleet

import (
	"bufio"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/ingest"
	"repro/internal/runtime"
)

// ListenSource accepts tenant traces over TCP and yields them as a Source —
// the fleet's network ingest edge. Each connection speaks either of the two
// existing trace encodings, auto-detected from its first bytes:
//
//   - the binary wire format (the stream starts with the magic), or
//   - the text line protocol (E|/S|/F| lines).
//
// Every connection decodes independently with its own read buffer into a
// slab — a recycled []ingest.Record of up to slabRecords entries — and hands
// the whole slab to Next over a channel: one channel operation per slab, none
// per record. A slab goes over when it is full, and before every read on the
// connection (flush-on-idle): a read may block for as long as the peer
// likes, so a decoded record never waits in a partial slab for traffic that
// may not come. Slabs from concurrent connections interleave; records of one
// connection stay in order.
//
// Backpressure is end-to-end: Next hands records to the caller's Pump, Pump
// blocks in Ingest under the fleet's overflow policy, the source's
// listenSlabs slabs fill and none comes back to the free list, the
// connection goroutine stops reading, and TCP flow control pushes back on
// the sender — a slow fleet slows the senders instead of buffering
// unboundedly.
//
// Next is single-consumer (Pump): it serves from its current slab without
// synchronization.
//
// The decoders never panic on malformed input (fuzz-verified, see
// FuzzListenDecode): a corrupt binary stream ends its connection at the
// first bad frame; a malformed text line, and in either encoding a record
// whose time is NaN or ±Inf, is counted and skipped, matching TailSource's
// recoverable-error stance.
type ListenSource struct {
	ln net.Listener
	// full carries decoded slabs to Next, free carries spent ones back. Both
	// hold listenSlabs — every slab there is — so neither send ever blocks;
	// a connection waits only to take a slab from free.
	full chan []ingest.Record
	free chan []ingest.Record
	stop chan struct{}
	// flushed is closed once every connection goroutine has exited, its last
	// slab handed over: what Next waits for before it reports io.EOF.
	flushed chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	cur []ingest.Record // Next's current slab, served up to pos
	pos int

	mu   sync.Mutex
	live map[net.Conn]struct{} // open connections, closed by Close

	conns      atomic.Int64 // connections accepted
	records    atomic.Int64 // records handed to Next, counted a slab at a time
	slabs      atomic.Int64 // slabs handed to Next
	bytes      atomic.Int64 // bytes read from connections
	decodeErrs atomic.Int64 // malformed lines and non-finite times skipped + streams aborted
}

const (
	// slabRecords is a slab's capacity: large enough that the channel
	// hand-off disappears from the per-record cost, small enough (15 KiB)
	// that a slab stays in cache between decoder and consumer.
	slabRecords = 128
	// listenSlabs is how many slabs a source owns: enough for the decoder to
	// run ahead while Pump sits in Ingest; with them the most a source
	// buffers is listenSlabs × slabRecords records.
	listenSlabs = 8
)

// Listen starts a trace listener on addr (":0" picks a free port). Drive it
// with Pump like any other Source; Close stops accepting and unblocks Next.
func Listen(addr string) (*ListenSource, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &ListenSource{
		ln:      ln,
		full:    make(chan []ingest.Record, listenSlabs),
		free:    make(chan []ingest.Record, listenSlabs),
		stop:    make(chan struct{}),
		flushed: make(chan struct{}),
		live:    make(map[net.Conn]struct{}),
	}
	for i := 0; i < listenSlabs; i++ {
		s.free <- make([]ingest.Record, 0, slabRecords)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *ListenSource) Addr() string { return s.ln.Addr().String() }

// Conns returns the number of connections accepted so far.
func (s *ListenSource) Conns() int64 { return s.conns.Load() }

// DecodeErrors returns the number of malformed lines and non-finite record
// times skipped plus binary streams aborted.
func (s *ListenSource) DecodeErrors() int64 { return s.decodeErrs.Load() }

// RegisterMetrics exposes the listen edge on reg. records ÷ slabs is the
// batching efficiency: near slabRecords, full slabs drive the hand-offs;
// near 1, flush-on-idle does (a trickle, or senders writing a frame at a
// time).
func (s *ListenSource) RegisterMetrics(reg *runtime.Registry) {
	for _, m := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"pfm_fleet_listen_conns_total", "Trace connections accepted.", &s.conns},
		{"pfm_fleet_listen_records_total", "Records decoded and handed to the pump.", &s.records},
		{"pfm_fleet_listen_slabs_total", "Record slabs handed to the pump (records / slabs = batching efficiency).", &s.slabs},
		{"pfm_fleet_listen_bytes_total", "Bytes read from trace connections.", &s.bytes},
		{"pfm_fleet_listen_decode_errors_total", "Malformed text lines and non-finite record times skipped, plus binary streams aborted.", &s.decodeErrs},
	} {
		reg.CounterFunc(m.name, m.help, func() float64 { return float64(m.v.Load()) })
	}
}

// Next yields the next record from any connection; io.EOF after Close, once
// every record decoded before it has been served. Single-consumer.
func (s *ListenSource) Next() (ingest.Record, error) {
	for s.pos == len(s.cur) {
		if s.cur != nil {
			s.free <- s.cur[:0]
			s.cur = nil
		}
		s.pos = 0
		select {
		case s.cur = <-s.full:
		case <-s.flushed:
			// Every connection has handed over its last slab: serve what
			// is left before reporting end-of-stream, so that no record a
			// connection counted is lost to the close race.
			select {
			case s.cur = <-s.full:
			default:
				return ingest.Record{}, io.EOF
			}
		}
	}
	rec := s.cur[s.pos]
	s.pos++
	return rec, nil
}

// Close stops accepting, ends every connection, and unblocks Next with
// io.EOF once the queued records drain.
func (s *ListenSource) Close() error {
	var err error
	s.once.Do(func() {
		close(s.stop)
		err = s.ln.Close()
		// End the reads promptly: each conn unblocks with an error instead
		// of waiting for its peer.
		s.mu.Lock()
		for conn := range s.live {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		close(s.flushed)
	})
	return err
}

func (s *ListenSource) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		select {
		case <-s.stop: // Close already swept live
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.live[conn] = struct{}{}
		s.mu.Unlock()
		s.conns.Add(1)
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve decodes one connection until its stream ends, fails, or the source
// closes.
func (s *ListenSource) serve(conn net.Conn) {
	defer s.wg.Done()
	c := &connDecoder{s: s, conn: conn}
	if err := decodeStream(c, c.emit, &s.decodeErrs); err != nil {
		s.decodeErrs.Add(1)
	}
	c.flush()
	s.mu.Lock()
	delete(s.live, conn)
	s.mu.Unlock()
	conn.Close()
}

// connDecoder is one connection's end of the slab hand-off: the io.Reader
// its decoder pulls from and the sink the decoder emits into.
type connDecoder struct {
	s    *ListenSource
	conn net.Conn
	slab []ingest.Record // being filled; nil between hand-over and the next record
}

// Read is the flush-on-idle rule: whatever has been decoded goes to Next
// before the connection is read, because the read may block.
func (c *connDecoder) Read(p []byte) (int, error) {
	c.flush()
	n, err := c.conn.Read(p)
	c.s.bytes.Add(int64(n))
	return n, err
}

// emit appends one decoded record; false once the source is closing.
func (c *connDecoder) emit(rec ingest.Record) bool {
	if c.slab == nil {
		select {
		case c.slab = <-c.s.free:
		case <-c.s.stop:
			return false
		}
	}
	c.slab = append(c.slab, rec)
	if len(c.slab) == cap(c.slab) {
		c.flush()
	}
	return true
}

// flush hands the slab to Next if it holds anything.
func (c *connDecoder) flush() {
	if c.slab == nil {
		return
	}
	c.s.records.Add(int64(len(c.slab)))
	c.s.slabs.Add(1)
	c.s.full <- c.slab
	c.slab = nil
}

// decodeStream decodes one connection's byte stream: binary frames when a
// magic leads (a retired format's is refused: the stream's one error), the
// text line protocol otherwise. emit returning false stops the decode
// cleanly. bad counts the records skipped: malformed text lines, and in
// either encoding a record whose time is NaN or ±Inf — one peer's record no
// cadence can step must not end every peer's input (files keep such times,
// only this edge drops them). The returned error is the stream-fatal decode
// error, if any — never a panic, whatever the input.
func decodeStream(r io.Reader, emit func(ingest.Record) bool, bad *atomic.Int64) error {
	// The connection's one read buffer, sized once: a read(2) fills many
	// slabs, and the wire Reader parses frames in it in place.
	br := bufio.NewReaderSize(r, wireBufSize)
	if isWire(br) {
		wr := NewReader(br)
		for {
			rec, err := wr.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				// A binary stream is stateful (dictionaries): one bad frame
				// poisons everything after it, so the connection ends here.
				return err
			}
			if !finite(rec) {
				bad.Add(1)
			} else if !emit(rec) {
				return nil
			}
		}
	}
	lines := NewTailSource(br)
	for {
		rec, err := lines.Next()
		switch {
		case lines.err == io.EOF:
			return nil
		case lines.err != nil: // a line over the cap
			return lines.err
		case err != nil || !finite(rec):
			bad.Add(1)
		case !emit(rec):
			return nil
		}
	}
}

// finite reports whether rec's time is a number a cadence can step.
func finite(rec ingest.Record) bool {
	return !math.IsNaN(rec.Event.Time) && !math.IsInf(rec.Event.Time, 0)
}

var _ Source = (*ListenSource)(nil)
