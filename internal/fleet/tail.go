package fleet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/eventlog"
	"repro/internal/runtime"
)

// Text line protocol: one record per line, pipe-separated — the shape of a
// syslog/sadc-style collector feed. Three record types:
//
//	E|tenant|time|component|type|severity|message   error-log event
//	S|tenant|time|variable|value                    monitoring sample
//	F|tenant|time                                   ground-truth failure
//
// Message is the trailing field of E and may not contain '|' or newlines
// (the same restriction eventlog.Log enforces). Blank lines and lines
// starting with '#' are skipped.

// FormatRecord renders one record as a protocol line (no newline).
func FormatRecord(r Record) string {
	ev := r.Event
	if r.Failure {
		return fmt.Sprintf("F|%s|%g", ev.Tenant, ev.Time)
	}
	if ev.Kind == runtime.KindError {
		return fmt.Sprintf("E|%s|%g|%s|%d|%d|%s",
			ev.Tenant, ev.Time, ev.Error.Component, ev.Error.Type,
			int(ev.Error.Severity), ev.Error.Message)
	}
	return fmt.Sprintf("S|%s|%g|%s|%g", ev.Tenant, ev.Time, ev.Variable, ev.Value)
}

// WriteTrace writes records as protocol lines.
func WriteTrace(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := bw.WriteString(FormatRecord(r)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseLine decodes one protocol line (skip == true for blanks/comments).
func ParseLine(line string) (rec Record, skip bool, err error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" || strings.HasPrefix(line, "#") {
		return Record{}, true, nil
	}
	// Message may not contain '|', so a fixed SplitN per type is exact.
	kind, rest, ok := strings.Cut(line, "|")
	if !ok {
		return Record{}, false, badRecord("line %q: no fields", line)
	}
	switch kind {
	case "F":
		f := strings.Split(rest, "|")
		if len(f) != 2 {
			return Record{}, false, badRecord("F line: want 2 fields, got %d", len(f))
		}
		t, err := parseTime(f[1])
		if err != nil {
			return Record{}, false, err
		}
		return Record{Failure: true, Event: Event{Tenant: f[0], Time: t}}, false, nil
	case "S":
		f := strings.Split(rest, "|")
		if len(f) != 4 {
			return Record{}, false, badRecord("S line: want 4 fields, got %d", len(f))
		}
		t, err := parseTime(f[1])
		if err != nil {
			return Record{}, false, err
		}
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return Record{}, false, badRecord("S line value %q: %v", f[3], err)
		}
		return Record{Event: Event{
			Tenant: f[0], Kind: runtime.KindSample, Time: t, Variable: f[2], Value: v,
		}}, false, nil
	case "E":
		f := strings.SplitN(rest, "|", 6)
		if len(f) != 6 {
			return Record{}, false, badRecord("E line: want 6 fields, got %d", len(f))
		}
		t, err := parseTime(f[1])
		if err != nil {
			return Record{}, false, err
		}
		typ, err := strconv.Atoi(f[3])
		if err != nil {
			return Record{}, false, badRecord("E line type %q: %v", f[3], err)
		}
		sev, err := strconv.Atoi(f[4])
		if err != nil {
			return Record{}, false, badRecord("E line severity %q: %v", f[4], err)
		}
		return Record{Event: Event{
			Tenant: f[0], Kind: runtime.KindError, Time: t,
			Error: eventlog.Event{
				Time: t, Component: f[2], Type: typ,
				Severity: eventlog.Severity(sev), Message: f[5],
			},
		}}, false, nil
	default:
		return Record{}, false, badRecord("unknown record type %q", kind)
	}
}

func parseTime(s string) (float64, error) {
	t, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, badRecord("bad time %q: %v", s, err)
	}
	return t, nil
}

// TailSource reads protocol lines from a stream until io.EOF.
type TailSource struct {
	r    *bufio.Reader
	line int
}

// NewTailSource reads from r.
func NewTailSource(r io.Reader) *TailSource {
	return &TailSource{r: bufio.NewReader(r)}
}

// Next returns the next decoded record. A malformed line is reported with
// its line number; the stream position advances past it, so callers may
// skip the error and keep calling Next. A final line without a newline is
// still parsed; the call after it returns io.EOF.
func (s *TailSource) Next() (Record, error) {
	for {
		line, err := s.r.ReadString('\n')
		if err != nil && (err != io.EOF || line == "") {
			return Record{}, err
		}
		s.line++
		rec, skip, perr := ParseLine(line)
		if perr != nil {
			return Record{}, fmt.Errorf("line %d: %w", s.line, perr)
		}
		if skip {
			continue
		}
		return rec, nil
	}
}
