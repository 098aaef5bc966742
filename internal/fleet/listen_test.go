package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	stdruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/runtime"
)

// limitSource ends a stream after n records — the deterministic EOF the
// listen-parity test needs, since a live ListenSource only EOFs on Close.
type limitSource struct {
	src Source
	n   int
}

func (l *limitSource) Next() (ingest.Record, error) {
	if l.n == 0 {
		return ingest.Record{}, io.EOF
	}
	l.n--
	return l.src.Next()
}

// TestListenParity: a trace shipped over TCP — split across two concurrent
// connections, one speaking the binary wire format and one the text line
// protocol — replays to the same per-tenant counts and ledger totals as
// the in-process slice source. Per-tenant ordering is preserved because
// each tenant's sub-stream rides a single connection; cross-tenant
// interleaving is arbitrary and must not matter.
func TestListenParity(t *testing.T) {
	ids, recs := simTrace(t)
	ref := replay(t, ids, NewSliceSource(recs))

	// Partition by tenant: first two tenants over wire, rest over text.
	wireTenants := map[string]bool{ids[0]: true, ids[1]: true}
	var wireRecs, textRecs []ingest.Record
	for _, rec := range recs {
		if wireTenants[rec.Event.Tenant] {
			wireRecs = append(wireRecs, rec)
		} else {
			textRecs = append(textRecs, rec)
		}
	}
	var wireBuf, textBuf bytes.Buffer
	if err := WriteWire(&wireBuf, wireRecs); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&textBuf, textRecs); err != nil {
		t.Fatal(err)
	}

	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	send := func(payload []byte) {
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer conn.Close()
		if _, err := conn.Write(payload); err != nil {
			t.Errorf("send: %v", err)
		}
	}
	go send(wireBuf.Bytes())
	go send(textBuf.Bytes())

	got := replay(t, ids, &limitSource{src: ls, n: len(recs)})
	for key, want := range ref {
		if g := got[key]; g != want {
			t.Errorf("listen source: %s = %v, want %v", key, g, want)
		}
	}
	if ls.Conns() != 2 {
		t.Errorf("conns = %d, want 2", ls.Conns())
	}
	if ls.DecodeErrors() != 0 {
		t.Errorf("decode errors = %d on clean streams, want 0", ls.DecodeErrors())
	}
}

// TestListenMalformed: a text connection with corrupt lines keeps going —
// bad lines are counted and skipped — while a corrupt binary stream ends
// its connection at the first bad frame, after yielding the records that
// preceded it.
func TestListenMalformed(t *testing.T) {
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// Text: two good samples around two malformed lines.
	text := "S|a|1|load|0.5\nGARBAGE\nS|a|abc|load|x\nS|a|2|load|0.6\n"
	// Wire: one good record, then a poisoned frame.
	var wire bytes.Buffer
	if err := WriteWire(&wire, []ingest.Record{{Event: ingest.Event{Tenant: "b", Kind: ingest.KindSample, Time: 1, Variable: "load", Value: 0.1}}}); err != nil {
		t.Fatal(err)
	}
	wire.Write([]byte{0xff, 0xff, 0xff, 0xff})
	for _, payload := range []string{text, wire.String()} {
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}

	counts := map[string]int{}
	for i := 0; i < 3; i++ {
		rec, err := ls.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		counts[rec.Event.Tenant]++
	}
	if counts["a"] != 2 || counts["b"] != 1 {
		t.Errorf("decoded counts = %v, want a:2 b:1", counts)
	}
	// 2 bad text lines + 1 aborted binary stream.
	deadline := time.Now().Add(2 * time.Second)
	for ls.DecodeErrors() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := ls.DecodeErrors(); got != 3 {
		t.Errorf("decode errors = %d, want 3 (2 bad lines + 1 bad stream)", got)
	}
}

// TestListenNonFiniteTime: in either encoding, a record whose time is +Inf
// is skipped and counted as a decode error, and the records around it on the
// same connection still arrive — one peer's unsteppable time must not end the
// listen run.
func TestListenNonFiniteTime(t *testing.T) {
	recs := []ingest.Record{
		{Event: sample("a", 1, 0.5)},
		{Event: sample("a", math.Inf(1), 0.7)},
		{Event: sample("a", 2, 0.6)},
	}
	for _, enc := range []struct {
		name  string
		write func(io.Writer, []ingest.Record) error
	}{{"wire", WriteWire}, {"text", WriteTrace}} {
		t.Run(enc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := enc.write(&buf, recs); err != nil {
				t.Fatal(err)
			}
			ls, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			conn, err := net.Dial("tcp", ls.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			for i, want := range []float64{1, 2} {
				rec, err := ls.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if rec.Event.Time != want {
					t.Fatalf("record %d time = %g, want %g", i, rec.Event.Time, want)
				}
			}
			if got := ls.DecodeErrors(); got != 1 {
				t.Errorf("decode errors = %d, want 1 (the +Inf record)", got)
			}
		})
	}
}

// TestListenFarTimeStepped: a finite time no cadence can step (1e300) from
// one peer is skipped and counted at the listen edge, so a Stepper at a 60 s
// cadence keeps running and every record of a good peer reaches the fleet.
func TestListenFarTimeStepped(t *testing.T) {
	var good []ingest.Record
	for i := 0; i < 20; i++ {
		good = append(good, ingest.Record{Event: sample("a", float64(30*i), 0.5)})
	}
	var badBuf, goodBuf bytes.Buffer
	if err := WriteWire(&badBuf, []ingest.Record{{Event: sample("a", 1e300, 0.5)}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&goodBuf, good); err != nil {
		t.Fatal(err)
	}
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	send := func(payload []byte) {
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	// The far record goes first, so that it is decoded before the good
	// peer's records are read.
	send(badBuf.Bytes())
	for deadline := time.Now().Add(5 * time.Second); ls.DecodeErrors() < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	send(goodBuf.Bytes())

	clock := newTestClock(0)
	f, err := New(testFleetConfig([]TenantSpec{{ID: "a"}}, clock))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	var stepClock Clock
	cycles := 0
	st := NewStepper(&limitSource{src: ls, n: len(good)}, 60, &stepClock, func(nows []float64) error {
		for _, now := range nows {
			clock.Set(now)
			if err := f.Barrier(ctx); err != nil {
				return err
			}
			f.EvaluateCycle()
			cycles++
		}
		return nil
	})
	if _, err := Pump(ctx, f, st); err != nil {
		t.Fatalf("the run ended: %v", err)
	}
	if err := f.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.TenantStatus("a"); v.Events != int64(len(good)) {
		t.Errorf("tenant a applied %d events, want %d", v.Events, len(good))
	}
	if cycles == 0 {
		t.Error("no cycle ran")
	}
	if got := ls.DecodeErrors(); got != 1 {
		t.Errorf("decode errors = %d, want 1 (the 1e300 record)", got)
	}
}

// TestListenCloseUnblocks: Close ends a blocked Next with io.EOF even with
// an idle connection open.
func TestListenCloseUnblocks(t *testing.T) {
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ls.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ls.Next()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("Next after Close = %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next still blocked after Close")
	}
}

// nextWithin is Next with a deadline, for tests whose failure mode is a
// record that never arrives.
func nextWithin(t *testing.T, ls *ListenSource, d time.Duration) ingest.Record {
	t.Helper()
	type result struct {
		rec ingest.Record
		err error
	}
	done := make(chan result, 1)
	go func() {
		rec, err := ls.Next()
		done <- result{rec, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Next: %v", r.err)
		}
		return r.rec
	case <-time.After(d):
		t.Fatalf("Next yielded nothing within %v", d)
		return ingest.Record{}
	}
}

// TestListenIdleFlush: fewer records than a slab holds, on a connection that
// stays open and silent afterwards, all reach Next — the partial slab goes
// over before the connection's next read blocks, not when it fills.
func TestListenIdleFlush(t *testing.T) {
	recs := make([]ingest.Record, slabRecords/4)
	for i := range recs {
		recs[i] = ingest.Record{Event: ingest.Event{Tenant: "a", Kind: ingest.KindSample, Time: float64(i), Variable: "load", Value: 1}}
	}
	// An encoder continues one stream: each call's bytes decode on arrival —
	// text lines as they are, binary records because a frame ends with them.
	encoders := map[string]func(io.Writer) func([]ingest.Record) error{
		"binary": func(w io.Writer) func([]ingest.Record) error {
			wr := NewWriter(w)
			return func(recs []ingest.Record) error {
				for _, rec := range recs {
					if err := wr.Write(rec); err != nil {
						return err
					}
				}
				return wr.Flush()
			}
		},
		"text": func(w io.Writer) func([]ingest.Record) error {
			return func(recs []ingest.Record) error { return WriteTrace(w, recs) }
		},
	}
	for name, encoder := range encoders {
		t.Run(name, func(t *testing.T) {
			ls, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			conn, err := net.Dial("tcp", ls.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close() // after the checks: the connection idles open
			// Two bursts of one stream: the second arrives after the first
			// was served, so neither can have waited for the other.
			var whole bytes.Buffer
			encode := encoder(&whole)
			if err := encode(recs[:5]); err != nil {
				t.Fatal(err)
			}
			cut := whole.Len()
			if err := encode(recs[5:]); err != nil {
				t.Fatal(err)
			}
			for _, burst := range []struct {
				payload []byte
				want    []ingest.Record
			}{{whole.Bytes()[:cut], recs[:5]}, {whole.Bytes()[cut:], recs[5:]}} {
				if _, err := conn.Write(burst.payload); err != nil {
					t.Fatal(err)
				}
				for _, want := range burst.want {
					if got := nextWithin(t, ls, 2*time.Second); !recordEqual(got, want) {
						t.Fatalf("got %+v, want %+v", got, want)
					}
				}
			}
			if got := ls.slabs.Load(); got < 2 {
				t.Errorf("slabs handed over = %d, want one per burst at least", got)
			}
		})
	}
}

// TestListenIdleFlushOneFrame: the binary twin of a single text line on an
// idle connection — one record and a Flush make a one-row frame, and the
// listener counts and serves it at once, without waiting for 127 more.
func TestListenIdleFlushOneFrame(t *testing.T) {
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	conn, err := net.Dial("tcp", ls.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // after the checks: the connection idles open
	w := NewWriter(conn)
	for i := 0; i < 3; i++ {
		want := ingest.Record{Event: ingest.Event{Tenant: "a", Kind: ingest.KindSample, Time: float64(i), Variable: "load", Value: 1}}
		if err := w.Write(want); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := nextWithin(t, ls, 2*time.Second); !recordEqual(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		if records, slabs := ls.records.Load(), ls.slabs.Load(); records != int64(i+1) || slabs != int64(i+1) {
			t.Errorf("after %d one-row frames: %d records in %d slabs", i+1, records, slabs)
		}
	}
}

// TestListenNoGoroutineLeak: a connection's goroutines end with it, not
// with the source — 200 connections come and go and the goroutine count is
// back where it was, with the source still open.
func TestListenNoGoroutineLeak(t *testing.T) {
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	base := stdruntime.NumGoroutine()
	const conns = 200
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("S|a|1|load|0.5\n")); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		nextWithin(t, ls, 2*time.Second)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls.mu.Lock()
		live := len(ls.live)
		ls.mu.Unlock()
		n := stdruntime.NumGoroutine()
		if live == 0 && n <= base+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d connections: %d goroutines (baseline %d), %d connections still tracked", conns, n, base, live)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ls.Conns() != conns {
		t.Errorf("conns = %d, want %d", ls.Conns(), conns)
	}
}

// TestListenCloseDeliversFlushed: Close racing a busy connection loses
// nothing that was handed over — every record a connection counted into a
// slab, full or partial, is served by Next before io.EOF, in order.
func TestListenCloseDeliversFlushed(t *testing.T) {
	const total = 200000
	recs := make([]ingest.Record, total)
	for i := range recs {
		recs[i] = ingest.Record{Event: ingest.Event{Tenant: "a", Kind: ingest.KindSample, Time: float64(i), Variable: "load", Value: 1}}
	}
	var wire bytes.Buffer
	if err := WriteWire(&wire, recs); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		ls, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ls.Addr())
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			defer conn.Close()
			_, _ = conn.Write(wire.Bytes()) // cut short by Close
		}()
		closeAt := 1000 + round*7777 // mid-slab, at a different depth each round
		closed := make(chan error, 1)
		served := 0
		for {
			rec, err := ls.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec.Event.Time != float64(served) {
				t.Fatalf("round %d: record %d carries time %v: a record was lost or reordered", round, served, rec.Event.Time)
			}
			served++
			if served == closeAt {
				go func() { closed <- ls.Close() }()
			}
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		<-sent
		if handed := ls.records.Load(); int64(served) != handed {
			t.Errorf("round %d: Next served %d records before io.EOF, connections handed over %d", round, served, handed)
		}
		if served < closeAt {
			t.Errorf("round %d: served %d, fewer than the %d seen before Close", round, served, closeAt)
		}
	}
}

// TestListenMetrics: the listen edge's counters appear on a registry, and
// records ÷ slabs reads as the batching efficiency.
func TestListenMetrics(t *testing.T) {
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	reg := runtime.NewRegistry()
	ls.RegisterMetrics(reg)
	const n = 10 * slabRecords
	var text bytes.Buffer
	for i := 0; i < n; i++ {
		text.WriteString("S|a|1|load|0.5\n")
	}
	text.WriteString("GARBAGE\n")
	conn, err := net.Dial("tcp", ls.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(text.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	for i := 0; i < n; i++ {
		nextWithin(t, ls, 2*time.Second)
	}
	deadline := time.Now().Add(2 * time.Second)
	for ls.DecodeErrors() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pfm_fleet_listen_conns_total 1\n",
		fmt.Sprintf("pfm_fleet_listen_records_total %d\n", n),
		"pfm_fleet_listen_decode_errors_total 1\n",
		"pfm_fleet_listen_slabs_total ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if got, want := ls.bytes.Load(), int64(text.Len()); got != want {
		t.Errorf("bytes = %d, want %d", got, want)
	}
	if slabs := ls.slabs.Load(); slabs < n/slabRecords || slabs > n {
		t.Errorf("slabs = %d for %d records: want between %d (all full) and one per record", slabs, n, n/slabRecords)
	}
}

// FuzzListenDecode: the connection decoder never panics, whatever bytes a
// peer sends — binary, text, or hostile hybrids. Shares the FuzzWireDecode
// seed shapes plus text-protocol seeds.
func FuzzListenDecode(f *testing.F) {
	var wire bytes.Buffer
	if err := WriteWire(&wire, wireSampleTrace()); err != nil {
		f.Fatal(err)
	}
	valid := wire.Bytes()
	var text bytes.Buffer
	if err := WriteTrace(&text, wireSampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(text.Bytes())
	f.Add([]byte(WireMagic))
	f.Add([]byte(WireMagic + "\xff\xff\xff\xff"))
	f.Add([]byte("S|a|1|load|0.5\nE|a|2|comp|0|1|msg\nF|a|3\n"))
	f.Add([]byte("S|a|1|load|0.5\n" + WireMagic + "\x01\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var bad atomic.Int64
		n := 0
		_ = decodeStream(bytes.NewReader(data), func(rec ingest.Record) bool {
			n++
			if len(rec.Event.Tenant) > maxWireString {
				t.Fatalf("decoded tenant exceeds cap")
			}
			return n < 1<<16 // bound emitted records, not a correctness limit
		}, &bad)
	})
}

// TestListenIngestZeroAllocs holds the network ingest path end to end — a
// frame stream on a live loopback connection, in-place frame decode, the slab
// hand-off to Next, Pump, routing, the tenant queues and the chunked drain —
// to zero allocations per record once the connection's dictionaries, buffer
// and slabs exist. One run is a burst of four slabs written to the socket
// and pumped through to a Barrier.
func TestListenIngestZeroAllocs(t *testing.T) {
	const tenants, burst = 8, 4 * slabRecords
	f, ids, applied := countingFleet(t, tenants, nil)
	ctx := context.Background()
	ls, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	conn, err := net.Dial("tcp", ls.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	recs := make([]ingest.Record, burst)
	for i := range recs {
		recs[i] = ingest.Record{Event: sample(ids[i%tenants], float64(i), 1)}
	}
	w := NewWriter(conn) // one stream: the dictionaries go over with the first burst
	lim := &limitSource{src: ls}
	runs := 0
	run := func() {
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		lim.n = burst
		if n, err := Pump(ctx, f, lim); err != nil || n != burst {
			t.Fatalf("pumped %d of %d: %v", n, burst, err)
		}
		if err := f.Barrier(ctx); err != nil {
			t.Fatal(err)
		}
		runs++
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("listen→drain allocates %.1f objects per %d-record burst, want 0", allocs, burst)
	}
	if got, want := applied.Load(), int64(runs*burst); got != want {
		t.Fatalf("applied %d of %d", got, want)
	}
}
