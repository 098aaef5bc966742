// Command loggen runs the SCP simulator and writes its record stream to
// disk: error-log events (the HSMM's input), SAR monitoring samples (the
// UBF's input) and ground-truth failure marks, interleaved in time order —
// the synthetic counterpart of the field data the paper calls for in
// Sect. 7.
//
// Usage:
//
//	loggen [-seed 7] [-days 7] [-out data]
//	loggen -tenants 100 [-skew 1] [-seed 7] [-days 7] [-out data]
//	loggen -tenants 100 -send 127.0.0.1:4561
//
// It runs -tenants independently seeded simulators (tenant i with seed
// -seed+i, its load scaled by a Zipf(-skew) profile; one tenant is the
// plain simulator at -seed) and writes the merged trace in both encodings:
// data.trace (text line protocol, one E|/S|/F| record per line) and
// data.wire (binary frames, internal/runtime/frame.go) — what predict, pfmd
// -fleet-trace, pfmd -replay-columnar (one tenant) and the internal/fleet
// fixtures read, each telling the two apart by magic. -send streams the
// binary encoding to a pfmd -listen address instead of writing files.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/fleet"
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
	send := fs.String("send", "", "stream the trace to a pfmd -listen address over TCP (binary frames) instead of writing files")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := scp.NewMulti(scp.MultiConfig{Tenants: *tenants, BaseSeed: *seed, Skew: *skew})
	if err != nil {
		return err
	}
	if err := m.Run(*days * 86400); err != nil {
		return err
	}
	recs := m.Drain()
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
	return nil
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
