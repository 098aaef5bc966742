package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/ingest"
)

// Source yields a tenant trace record by record. Next returns io.EOF when
// the trace is exhausted; any other error aborts the pump. A Source has one
// consumer — Pump — and no implementation's Next may be called from two
// goroutines at once. Implementations in this package: SliceSource
// (in-process), TailSource (text line protocol), Reader (binary wire
// format), ListenSource (either encoding over TCP); OpenTrace opens a
// recorded file in either encoding. The record is the one the simulator
// emits (scp.MultiSystem.Drain) and the tools exchange: cmd/loggen writes it
// in both encodings, cmd/predict and pfmd -fleet-trace read it back.
type Source interface {
	Next() (ingest.Record, error)
}

// isWire reports whether the stream behind br is binary — the one test that
// tells the wire format from the text line protocol, on a file (OpenTrace)
// and on a socket (decodeStream) alike. A retired format's magic counts: the
// Reader refuses it by name, where the text parser would report garbage.
func isWire(br *bufio.Reader) bool {
	magic, _ := br.Peek(len(WireMagic))
	return string(magic) == WireMagic || string(magic) == "PFW1" || string(magic) == "PFC1"
}

// OpenTrace opens a recorded trace file in either encoding, told apart by
// its first four bytes, never by its name. The Closer releases the file. A
// file in a retired binary format opens too: its first Next says so.
func OpenTrace(path string) (Source, io.Closer, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(fh, wireBufSize)
	if isWire(br) {
		return NewReader(br), fh, nil
	}
	return NewTailSource(br), fh, nil
}

// Pump drains src into the fleet: events go through the overflow policy as
// Ingest puts them, failure marks as RecordFailure does. It returns the
// number of records consumed and the first hard error (records of an unknown
// tenant are skipped, the events among them counted ingested and dropped on
// pfm_events_dropped_total{reason="unknown"} — one bad tenant in a shared
// trace must not stall the rest of the fleet, nor cost an error value a
// record).
//
// A record costs one tenant resolution, usually a pointer compare
// (tenantTable), and one copy of its event, from rec into the queue slot.
func Pump(ctx context.Context, f *Fleet, src Source) (int, error) {
	var tenants tenantTable
	n := 0
	for {
		rec, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		tn := tenants.resolve(f.mem.Load(), rec.Event.Tenant)
		if rec.Failure {
			if tn != nil {
				tn.recordFailure(rec.Event.Time)
			}
		} else if err := f.ingest(ctx, tn, &rec.Event); err != nil && err != ErrUnknownTenant {
			return n, err
		}
		n++
	}
}

// tenantTable is one Pump's memo of membership.byID, keyed by where a
// tenant ID's bytes are rather than by what they are: a trace names each
// tenant through one string — a SliceSource's records share the simulator's,
// a frame stream's its dictionary entry — so the entry found at the hash of
// the data pointer is nearly always that very string, and comparing it costs
// a pointer and a length where the map hashes the bytes. An ID at another
// address, an unknown one (never cached) and anything after a membership
// change go to byID. The table is the Pump's own — on its stack, so a Pump
// allocates nothing for it — and a slot holds its string, so the address
// cannot come to mean another ID while the slot names it.
type tenantTable struct {
	mem   *membership // the generation the slots were resolved against
	slots [tableSlots]tableSlot
}

type tableSlot struct {
	id string
	tn *tenant
}

// tableSlots × 24 bytes is the table. While a fleet fills it to half at most,
// tableProbes slots from an ID's home nearly always reach the ID or a free
// slot, and a hit is 7 ns where byID is 9 with everything in cache and some
// 40 beside the queues' traffic. Past the probes the home slot's tenant makes
// way, so a fleet of any size resolves correctly; one much larger than the
// table evicts its way through it and pays for the probes and byID both (not
// measured: the benchmark's fleets are 1000 tenants).
const (
	tableBits   = 11
	tableSlots  = 1 << tableBits
	tableProbes = 8
)

// resolve returns the tenant id names in mem, nil if it names none.
func (tt *tenantTable) resolve(mem *membership, id string) *tenant {
	if mem != tt.mem { // a new generation: every slot may be stale
		if tt.mem != nil {
			clear(tt.slots[:])
		}
		tt.mem = mem
	}
	p := unsafe.StringData(id)
	home := uint64(uintptr(unsafe.Pointer(p))) * 0x9E3779B97F4A7C15 >> (64 - tableBits)
	free := &tt.slots[home]
	for k := uint64(0); k < tableProbes; k++ {
		s := &tt.slots[(home+k)%tableSlots]
		if s.tn == nil {
			free = s
			break
		}
		if unsafe.StringData(s.id) == p && s.id == id {
			return s.tn
		}
	}
	tn := mem.byID[id]
	if tn != nil {
		*free = tableSlot{id, tn}
	}
	return tn
}

// SliceSource replays an in-memory record slice — scp.MultiSystem.Drain's,
// for one.
type SliceSource struct {
	recs []ingest.Record
	i    int
}

// NewSliceSource wraps recs (not copied).
func NewSliceSource(recs []ingest.Record) *SliceSource { return &SliceSource{recs: recs} }

func (s *SliceSource) Next() (ingest.Record, error) {
	i := s.i
	if i >= len(s.recs) {
		return ingest.Record{}, io.EOF
	}
	s.i = i + 1
	return s.recs[i], nil
}

// SCPRecords returns trace itself: scp.MultiSystem.Drain already yields
// the records a Source does. It stays for bench/pfmbench until ROADMAP 10(b).
func SCPRecords(trace []ingest.Record) []ingest.Record { return trace }

// badRecord wraps a malformed-input error with position context.
func badRecord(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFleet, fmt.Sprintf(format, args...))
}
