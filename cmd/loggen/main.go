// Command loggen runs the SCP simulator and writes its record stream to
// disk: error-log events (the HSMM's input), SAR monitoring samples (the
// UBF's input) and ground-truth failure marks, interleaved in time order —
// the synthetic counterpart of the field data the paper calls for in
// Sect. 7.
//
// Usage:
//
//	loggen [-seed 7] [-days 7] [-out data] [-columnar]
//	loggen -tenants 100 [-skew 1] [-seed 7] [-days 7] [-out data]
//	loggen -tenants 100 -send 127.0.0.1:4561
//
// It runs -tenants independently seeded simulators (tenant i with seed
// -seed+i, its load scaled by a Zipf(-skew) profile; one tenant is the
// plain simulator at -seed) and writes the merged trace in both fleet
// encodings: data.trace (text line protocol, one E|/S|/F| record per
// line) and data.wire (PFW1 binary wire format) — what predict, pfmd
// -fleet-trace and the internal/fleet fixtures read. -columnar also
// writes data.cols, the same records as a PFC1 struct-of-arrays trace for
// pfmd -replay-columnar; the format carries no tenant, so it takes
// -tenants 1. -send streams the PFW1 encoding to a pfmd -listen address
// instead of writing files.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/fleet"
	"repro/internal/runtime"
	"repro/internal/scp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loggen", flag.ContinueOnError)
	seed := fs.Int64("seed", 7, "simulation seed (tenant i runs with seed+i)")
	days := fs.Float64("days", 7, "simulated horizon [days]")
	out := fs.String("out", "data", "output file prefix")
	tenants := fs.Int("tenants", 1, "number of simulated tenants interleaved in the trace")
	skew := fs.Float64("skew", 1, "Zipf exponent of the per-tenant load profile (0 = uniform)")
	columnar := fs.Bool("columnar", false, "also write <out>.cols, the PFC1 columnar trace pfmd -replay-columnar consumes (-tenants 1 only)")
	send := fs.String("send", "", "stream the trace to a pfmd -listen address over TCP (PFW1 wire format) instead of writing files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *columnar && (*tenants != 1 || *send != "") {
		return fmt.Errorf("-columnar writes a single-tenant file: it takes -tenants 1 and no -send")
	}

	m, err := scp.NewMulti(scp.MultiConfig{Tenants: *tenants, BaseSeed: *seed, Skew: *skew})
	if err != nil {
		return err
	}
	if err := m.Run(*days * 86400); err != nil {
		return err
	}
	recs := fleet.SCPRecords(m.Drain())
	failures := 0
	for _, r := range recs {
		if r.Failure {
			failures++
		}
	}

	if *send != "" {
		// TCP flow control paces the send against the fleet's ingest
		// backpressure.
		conn, err := net.Dial("tcp", *send)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := fleet.WriteWire(conn, recs); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sent %d records (%d tenants, %d failures) to %s\n",
			len(recs), *tenants, failures, *send)
		return nil
	}

	if err := writeFile(*out+".trace", func(w io.Writer) error { return fleet.WriteTrace(w, recs) }); err != nil {
		return err
	}
	if err := writeFile(*out+".wire", func(w io.Writer) error { return fleet.WriteWire(w, recs) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s.trace and %s.wire: %d tenants (zipf skew %g), %d records, %d failures\n",
		*out, *out, *tenants, *skew, len(recs), failures)
	if *columnar {
		trace, err := buildColumnar(recs)
		if err != nil {
			return err
		}
		if err := writeFile(*out+".cols", func(w io.Writer) error {
			_, err := trace.WriteTo(w)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s.cols: %d events, %d failures\n", *out, trace.Len(), len(trace.Failures))
	}
	return nil
}

// buildColumnar lays one tenant's records out as a PFC1 trace: events keep
// their order in the columns, failure marks go to the trace's failure list.
func buildColumnar(recs []fleet.Record) (*runtime.ColumnarTrace, error) {
	b := runtime.NewColumnarBuilder()
	b.Grow(len(recs))
	for _, r := range recs {
		ev := r.Event
		var err error
		switch {
		case r.Failure:
			err = b.AddFailure(ev.Time)
		case ev.Kind == runtime.KindError:
			err = b.AddError(ev.Error)
		default:
			err = b.AddSample(ev.Time, ev.Variable, ev.Value)
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Trace(), nil
}

// writeFile creates path and fills it through write; a failed Close is a
// failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}
