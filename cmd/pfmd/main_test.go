package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventlog"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/runtime"
	"repro/internal/scp"
	"repro/internal/service"
)

// scrape GETs one endpoint of a running pfmd.
func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Errorf("GET %s: %v", path, err)
		return 0, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metricSum adds up every sample of one metric family in a Prometheus text
// exposition (all label sets; a histogram's _bucket/_sum/_count lines have
// other names and do not match).
func metricSum(t *testing.T, exposition, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		if rest := line[len(name):]; rest[0] != ' ' && rest[0] != '{' {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Errorf("metric line %q: %v", line, err)
			continue
		}
		sum += v
		found = true
	}
	if !found {
		t.Errorf("metric %s not in the exposition", name)
	}
	return sum
}

// planes is what one scrape of every endpoint returned.
type planes struct {
	metrics   string
	health    runtime.Health
	healthSC  int
	ledger    string
	incidents []runtime.IncidentSummary
}

// scrapeAll reads the base plane and the single-tenant /ledger, checking each
// answers and parses.
func scrapeAll(t *testing.T, addr string) planes {
	t.Helper()
	p := scrapeBase(t, addr)
	var code int
	if code, p.ledger = scrape(t, addr, "/ledger"); code != http.StatusOK || !strings.Contains(p.ledger, `"layer":"combined"`) {
		t.Errorf("/ledger: %d %s", code, p.ledger)
	}
	return p
}

// scrapeBase reads the endpoints both planes serve — /metrics, /healthz,
// /livez, /tracez and /incidents — checking each answers and parses.
func scrapeBase(t *testing.T, addr string) planes {
	t.Helper()
	var p planes
	code, body := scrape(t, addr, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "pfm_events_ingested_total") {
		t.Errorf("/metrics: %d, %d bytes", code, len(body))
	}
	p.metrics = body
	p.healthSC, body = scrape(t, addr, "/healthz")
	if err := json.Unmarshal([]byte(body), &p.health); err != nil {
		t.Errorf("/healthz body %q: %v", body, err)
	}
	if code, body = scrape(t, addr, "/livez"); code != http.StatusOK || !strings.Contains(body, `"status":"live"`) {
		t.Errorf("/livez: %d %s", code, body)
	}
	if code, body = scrape(t, addr, "/tracez"); code != http.StatusOK || !strings.HasPrefix(body, "tracez:") {
		t.Errorf("/tracez: %d %s", code, body)
	}
	if code, body = scrape(t, addr, "/incidents"); code != http.StatusOK {
		t.Errorf("/incidents: %d %s", code, body)
	} else if err := json.Unmarshal([]byte(body), &p.incidents); err != nil {
		t.Errorf("/incidents body %q: %v", body, err)
	}
	return p
}

// checkDrained asserts what the endpoints must say once the pipeline has
// stopped gracefully: readiness 503 "stopped" with an empty queue, and the
// conservation law closed on the scraped counters with nothing shed.
func checkDrained(t *testing.T, p planes) (ingested float64) {
	t.Helper()
	if p.healthSC != http.StatusServiceUnavailable || p.health.Status != "stopped" || p.health.QueueDepth != 0 {
		t.Errorf("/healthz after drain: %d %+v, want 503 stopped with an empty queue", p.healthSC, p.health)
	}
	ingested = metricSum(t, p.metrics, "pfm_events_ingested_total")
	applied := metricSum(t, p.metrics, "pfm_events_applied_total")
	dropped := metricSum(t, p.metrics, "pfm_events_dropped_total")
	if ingested == 0 || ingested != applied+dropped {
		t.Errorf("ingested %v != applied %v + dropped %v", ingested, applied, dropped)
	}
	if dropped != 0 {
		t.Errorf("graceful drain under the block policy dropped %v events", dropped)
	}
	if ev := metricSum(t, p.metrics, "pfm_evaluations_total"); ev == 0 || int64(ev) != p.health.Evaluations {
		t.Errorf("pfm_evaluations_total %v, /healthz evaluations %d", ev, p.health.Evaluations)
	}
	return ingested
}

// writeTrace builds a two-hour one-tenant trace: three SAR variables every 60 s,
// and an error burst dense enough to trip the error-rate layer in the ten
// minutes before a failure at 5400 s.
func writeTrace(t *testing.T) (path string, events int) {
	t.Helper()
	b := runtime.NewColumnarBuilder()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for at := 0.0; at <= 7200; at += 10 {
		if at >= 4800 && at < 5400 {
			must(b.AddError(eventlog.Event{
				Time: at, Component: "db", Type: 7, Severity: eventlog.SeverityCritical, Message: "timeout",
			}))
			events++
		}
		if int(at)%60 == 0 {
			must(b.AddSample(at, "cpu", 0.4))
			must(b.AddSample(at, "mem_free", 4096))
			must(b.AddSample(at, "swap", 0))
			events += 3
		}
	}
	must(b.AddFailure(5400))
	path = filepath.Join(t.TempDir(), "trace.wire")
	f, err := os.Create(path)
	must(err)
	_, err = b.Trace().WriteTo(f)
	must(err)
	must(f.Close())
	return path, events
}

// TestReplayColumnarRun runs pfmd -replay-columnar in process over a small
// trace and checks every endpoint before the replay and after the drain.
func TestReplayColumnarRun(t *testing.T) {
	path, events := writeTrace(t)
	var stdout, stderr strings.Builder
	c, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-replay-columnar", path, "-eval", "60",
		"-trace-sample", "1", "-trace-dump", "3", "-incident-warn", "0.2",
		"-incident-dir", filepath.Join(t.TempDir(), "incidents"), "-log-format", "json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var addr string
	var final planes
	c.Serving = func(bound string) {
		addr = bound
		if p := scrapeAll(t, addr); p.healthSC != http.StatusOK || p.health.Status != "ok" {
			t.Errorf("/healthz while serving: %d %+v", p.healthSC, p.health)
		}
	}
	c.Drained = func() { final = scrapeAll(t, addr) }
	if err := service.Run(context.Background(), c); err != nil {
		t.Fatalf("service.Run: %v\n%s", err, stderr.String())
	}
	if got := checkDrained(t, final); int(got) != events {
		t.Errorf("ingested %v events, trace has %d", got, events)
	}
	// 120 cadence points in (0, 7200] plus the final drain cycle.
	if final.health.Evaluations != 121 {
		t.Errorf("evaluations = %d, want 121", final.health.Evaluations)
	}
	if metricSum(t, final.metrics, "pfm_warnings_total") == 0 || len(final.incidents) == 0 {
		t.Errorf("the error burst raised no warning or no incident bundle: %d bundles", len(final.incidents))
	}
	for _, want := range []string{"replay complete", "pipeline summary", "prediction quality", "incident summary"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("exit log lacks %q", want)
		}
	}
	if !strings.Contains(stdout.String(), "slowest 3 end-to-end traces") {
		t.Errorf("stdout lacks the -trace-dump table:\n%s", stdout.String())
	}
}

// TestReplayColumnarByMagic: -replay-columnar reads a trace through
// fleet.OpenTrace, so the binary and the text encoding of one trace give the
// same records and replay to the same summary whatever the file is called; a
// second tenant is refused by name, and so is a retired binary format,
// instead of being parsed as text.
func TestReplayColumnarByMagic(t *testing.T) {
	path, events := writeTrace(t)
	wire := readRecords(t, path)
	var text strings.Builder
	for _, rec := range wire {
		text.WriteString(fleet.FormatRecord(rec) + "\n")
	}
	write := func(name, content string) string {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	textPath := write("text.wire", text.String())
	if fromText := readRecords(t, textPath); len(wire) != events+1 || !slices.Equal(fromText, wire) {
		t.Fatalf("%d records from binary, %d from text, want %d events and one failure, equal", len(wire), len(fromText), events)
	}
	replay := func(path string) (string, error) {
		var stderr strings.Builder
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-replay-columnar", path,
			"-incident-cap", "0", "-log-format", "json"}, io.Discard, &stderr)
		return summaryLines(stderr.String()), err
	}
	fromWire, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromText, err := replay(textPath); err != nil || fromText != fromWire {
		t.Errorf("text replay (err %v):\n%s\nbinary replay:\n%s", err, fromText, fromWire)
	}
	if _, err := replay(write("two.trace", "S|a|1|cpu|1\nS|b|2|cpu|1\n")); err == nil || !strings.Contains(err.Error(), `"a" and "b"`) {
		t.Errorf("two tenants: err = %v, want a refusal naming them", err)
	}
	if _, err := replay(write("old.bin", "PFC1\x00\x00\x00\x00")); err == nil || !strings.Contains(err.Error(), "PFC1 format was retired") {
		t.Errorf("a PFC1 file: err = %v, want the format refused by name", err)
	}
}

// readRecords reads a trace file through fleet.OpenTrace.
func readRecords(t *testing.T, path string) []ingest.Record {
	t.Helper()
	src, closer, err := fleet.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var recs []ingest.Record
	for rec, err := src.Next(); err != io.EOF; rec, err = src.Next() {
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// summaryLines keeps the exit log's "pipeline summary" and "prediction
// quality" records, without their timestamps.
func summaryLines(log string) string {
	var b strings.Builder
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, `"pipeline summary"`) || strings.Contains(line, `"prediction quality"`) {
			_, rest, _ := strings.Cut(line, `"level"`)
			b.WriteString(rest + "\n")
		}
	}
	return b.String()
}

// TestLiveRun runs the live service in process on a free port, scrapes
// every endpoint while the replay is feeding it, cancels the context mid-run
// as a SIGINT would, and checks the graceful drain.
func TestLiveRun(t *testing.T) {
	var stdout, stderr lockedBuilder
	c, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-days", "30", "-compress", "36000",
		"-hotswap", "-meta-weights", "1,1,1,1", "-log-format", "json",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var final planes // written by service.Run's goroutine, read after it returned
	addrCh := make(chan string, 1)
	c.Serving = func(bound string) { addrCh <- bound }
	c.Drained = func() { final = scrapeAll(t, <-addrCh) }
	done := make(chan error, 1)
	go func() { done <- service.Run(ctx, c) }()
	addr := <-addrCh
	addrCh <- addr

	deadline := time.Now().Add(20 * time.Second)
	for {
		p := scrapeAll(t, addr)
		if p.healthSC != http.StatusOK || p.health.Status != "ok" {
			t.Fatalf("/healthz while running: %d %+v", p.healthSC, p.health)
		}
		if p.health.Evaluations >= 5 && metricSum(t, p.metrics, "pfm_events_applied_total") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress: %+v\n%s", p.health, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := scrape(t, addr, "/layers"); code != http.StatusOK || !strings.Contains(body, `"errors"`) {
		t.Errorf("/layers with -hotswap: %d %s", code, body)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("service.Run: %v\n%s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("service.Run did not return after cancel")
	}
	checkDrained(t, final)
	for _, want := range []string{"replay starting", "pipeline summary", "system summary", "predictor lifecycle summary"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("exit log lacks %q", want)
		}
	}
}

// TestLiveDeterministic: cycles run on the run's one domain clock, so two
// live runs with the same flags serve byte-identical /ledger bodies — and at
// the default cadence, inside the lead time, the combined decision scores.
func TestLiveDeterministic(t *testing.T) {
	live := func() (ledger, log string) {
		var stderr strings.Builder
		c, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-days", "3", "-compress", "864000",
			"-log-format", "json"}, io.Discard, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		var addr string
		c.Serving = func(bound string) { addr = bound }
		c.Drained = func() { ledger = scrapeAll(t, addr).ledger }
		if err := service.Run(context.Background(), c); err != nil {
			t.Fatalf("service.Run: %v\n%s", err, stderr.String())
		}
		return ledger, stderr.String()
	}
	first, log := live()
	if second, _ := live(); second != first {
		t.Errorf("two runs with the same flags served different /ledger bodies:\n%s\n%s", first, second)
	}
	var combined struct{ TP, FP, FN int }
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, `"prediction quality"`) && strings.Contains(line, `"layer":"combined"`) {
			if err := json.Unmarshal([]byte(line), &combined); err != nil {
				t.Fatal(err)
			}
		}
	}
	if combined.TP == 0 {
		t.Errorf("combined decision: %+v, want F > 0\n%s", combined, summaryLines(log))
	}
}

// TestFleetRun runs pfmd -fleet in process over a handful of simulated
// tenants for half a simulated day, scrapes the fleet plane while it serves
// and after the drain, and checks that the -incident-* flags reach it: every
// warning raises a bundle (-incident-warn 0) that /incidents serves, the
// shared incident families count and -incident-dir keeps. -pprof and
// -trace-dump are read as in every mode: /debug/pprof/ answers beside the
// fleet plane, and the slowest traces follow the run on stdout.
func TestFleetRun(t *testing.T) {
	const tenants = 6
	dir := filepath.Join(t.TempDir(), "incidents")
	var stdout, stderr strings.Builder
	c, err := parseFlags([]string{
		"-fleet", "-tenants", strconv.Itoa(tenants), "-shards", "2", "-addr", "127.0.0.1:0",
		"-days", "0.5", "-compress", "86400", "-trace-sample", "1",
		"-incident-warn", "0", "-incident-dir", dir, "-log-format", "json",
		"-pprof", "-trace-dump", "3",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	// fleetView scrapes /fleet and returns its tenant rows.
	fleetView := func(addr string) []json.RawMessage {
		code, body := scrape(t, addr, "/fleet")
		var view struct {
			Tenants []json.RawMessage `json:"tenants"`
		}
		if err := json.Unmarshal([]byte(body), &view); code != http.StatusOK || err != nil {
			t.Errorf("/fleet: %d %v %s", code, err, body)
		}
		return view.Tenants
	}
	var addr string
	var final planes
	c.Serving = func(bound string) {
		addr = bound
		if p := scrapeBase(t, addr); p.healthSC != http.StatusOK || p.health.Status != "ok" ||
			p.health.Tenants != tenants || p.health.Shards != 2 {
			t.Errorf("/healthz while serving: %d %+v", p.healthSC, p.health)
		}
		if rows := fleetView(addr); len(rows) != tenants {
			t.Errorf("/fleet while serving: %d tenant rows, want %d", len(rows), tenants)
		}
		if code, body := scrape(t, addr, "/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
			t.Errorf("/debug/pprof/ with -pprof: %d %.80q", code, body)
		}
	}
	c.Drained = func() {
		final = scrapeBase(t, addr)
		if rows := fleetView(addr); len(rows) != tenants {
			t.Errorf("/fleet after the drain: %d tenant rows, want %d", len(rows), tenants)
		}
	}
	if err := service.Run(context.Background(), c); err != nil {
		t.Fatalf("service.Run: %v\n%s", err, stderr.String())
	}
	checkDrained(t, final)
	for _, series := range []string{
		`pfm_fleet_tenants 6`, `pfm_layer_eval_errors_total{layer="load"} 0`, `pfm_incidents_total{trigger="warn"}`,
		`pfm_incident_bundle_seconds_count`,
	} {
		if !strings.Contains(final.metrics, series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	if dump := stdout.String(); !strings.Contains(dump, "slowest 3 end-to-end traces:") {
		t.Errorf("-trace-dump 3: stdout lacks the trace table:\n%s", dump)
	}
	if metricSum(t, final.metrics, "pfm_warnings_total") == 0 || len(final.incidents) == 0 {
		t.Fatalf("no warning or no bundle on /incidents: %d bundles\n%s", len(final.incidents), stderr.String())
	}
	// Stop flushed every scope before drained ran, so the directory holds at
	// least what /incidents retains.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) < len(final.incidents) {
		t.Errorf("%d bundle files in -incident-dir for %d bundles on /incidents (err %v)", len(files), len(final.incidents), err)
	}
	if _, err := os.Stat(filepath.Join(dir, final.incidents[0].ID+".json")); err != nil {
		t.Errorf("bundle %s served but not persisted: %v", final.incidents[0].ID, err)
	}
	for _, want := range []string{"fleet started", "incident bundle written", "fleet summary"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("exit log lacks %q", want)
		}
	}
}

// TestFleetShardsAgree: -fleet over the simulator serves the same per-tenant
// rows on /fleet — counters, last confidence, quality table — whether one
// shard or three drain the tenants.
func TestFleetShardsAgree(t *testing.T) {
	type row struct {
		ID                                  string
		Events, Failures, Warnings, Actions int64
		Confidence                          *float64
		Quality                             json.RawMessage
	}
	rows := func(shards string) []row {
		var stderr strings.Builder
		c, err := parseFlags([]string{"-fleet", "-tenants", "5", "-shards", shards, "-addr", "127.0.0.1:0",
			"-days", "2", "-compress", "864000", "-incident-cap", "0", "-log-format", "json"}, io.Discard, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		var addr string
		var view struct{ Tenants []row }
		c.Serving = func(bound string) { addr = bound }
		c.Drained = func() {
			_, body := scrape(t, addr, "/fleet")
			if err := json.Unmarshal([]byte(body), &view); err != nil {
				t.Errorf("/fleet: %v %s", err, body)
			}
		}
		if err := service.Run(context.Background(), c); err != nil {
			t.Fatalf("service.Run -shards %s: %v\n%s", shards, err, stderr.String())
		}
		return view.Tenants
	}
	one, three := rows("1"), rows("3")
	if len(one) != 5 || !reflect.DeepEqual(one, three) {
		t.Fatalf("/fleet rows at -shards 1:\n%+v\nat -shards 3:\n%+v", one, three)
	}
	warned := false
	for _, r := range one {
		warned = warned || r.Warnings > 0
	}
	if !warned {
		t.Errorf("no tenant warned in two simulated days: %+v", one)
	}
}

// TestFleetRateLimited: with -rate-limit far below the tenants' event rate,
// at the default -queue and -overflow block, what is over the rate is shed at
// admission, so no backlog waits on the clock and nothing stalls the producer
// that moves it. The run reaches its horizon with every boundary's cycle run,
// and ingested = applied + dropped with every drop a ratelimited one.
func TestFleetRateLimited(t *testing.T) {
	var stderr strings.Builder
	c, err := parseFlags([]string{"-fleet", "-tenants", "3", "-shards", "2", "-rate-limit", "0.02",
		"-days", "0.25", "-compress", "864000", "-addr", "127.0.0.1:0",
		"-log-format", "json"}, io.Discard, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var addr string
	var final planes
	c.Serving = func(bound string) { addr = bound }
	c.Drained = func() { final = scrapeBase(t, addr) }
	if err := service.Run(ctx, c); err != nil {
		t.Fatalf("service.Run: %v\n%s", err, stderr.String())
	}
	if ctx.Err() != nil {
		t.Fatalf("a quarter of a simulated day did not run in a minute: a held backlog stalled the cycles\n%s", stderr.String())
	}
	if final.health.Status != "stopped" || final.health.QueueDepth != 0 {
		t.Errorf("/healthz after drain: %+v, want stopped with an empty queue", final.health)
	}
	ingested := metricSum(t, final.metrics, "pfm_events_ingested_total")
	applied := metricSum(t, final.metrics, "pfm_events_applied_total")
	dropped := metricSum(t, final.metrics, "pfm_events_dropped_total")
	shed := metricSum(t, final.metrics, `pfm_events_dropped_total{reason="ratelimited"}`)
	if ingested != applied+dropped || shed != dropped {
		t.Errorf("ingested %v, applied %v, dropped %v of which ratelimited %v: want the sum to close and every drop ratelimited",
			ingested, applied, dropped, shed)
	}
	if shed == 0 || applied == 0 {
		t.Errorf("applied %v, shed %v: the limit did not bind, or let nothing through", applied, shed)
	}
	// A boundary every 60 s of the 21600 s horizon, less the first minute's,
	// and Stop's final cycle.
	if ev := final.health.Evaluations; ev < 359 {
		t.Errorf("%d evaluations, want one per boundary (about 360)", ev)
	}
}

// TestFleetTraceByMagic replays one recorded trace through pfmd -fleet-trace
// in each encoding under the other one's file name: what tells frames from
// text is the file's magic, so both must ingest every event.
func TestFleetTraceByMagic(t *testing.T) {
	const tenants = 3
	m, err := scp.NewMulti(scp.MultiConfig{Tenants: tenants, BaseSeed: 7, Skew: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0.25 * 86400); err != nil {
		t.Fatal(err)
	}
	recs := m.Drain()
	events := 0
	for _, r := range recs {
		if !r.Failure {
			events++
		}
	}
	dir := t.TempDir()
	for name, write := range map[string]func(io.Writer, []ingest.Record) error{
		"binary.trace": fleet.WriteWire,
		"text.wire":    fleet.WriteTrace,
	} {
		path := filepath.Join(dir, name)
		fh, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(fh, recs); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		var stderr strings.Builder
		c, err := parseFlags([]string{
			"-fleet", "-tenants", strconv.Itoa(tenants), "-fleet-trace", path, "-addr", "127.0.0.1:0",
			"-compress", "864000", "-log-format", "json",
		}, io.Discard, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		var addr string
		var final planes
		c.Serving = func(bound string) { addr = bound }
		c.Drained = func() { final = scrapeBase(t, addr) }
		if err := service.Run(context.Background(), c); err != nil {
			t.Fatalf("%s: service.Run: %v\n%s", name, err, stderr.String())
		}
		if got := checkDrained(t, final); int(got) != events {
			t.Errorf("%s: ingested %v events, trace has %d", name, got, events)
		}
	}
}

// lockedBuilder is a strings.Builder the logger and the test may use from
// different goroutines.
type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestParseFlags covers the flag plumbing run's modes rely on.
func TestParseFlags(t *testing.T) {
	c, err := parseFlags([]string{"-overflow", "drop-oldest", "-trace-cap", "8", "-trace-dump", "50"}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.Overflow != runtime.DropOldest || c.QueueCapacity != 4096 || c.Eval != 60 {
		t.Errorf("runtime options: queue %d %v, -eval %g", c.QueueCapacity, c.Overflow, c.Eval)
	}
	if c.IncidentCap != 32 {
		t.Errorf("defaults: -incident-cap %d", c.IncidentCap)
	}
	// pfmd refuses what its flags cannot parse; service.Run refuses a value
	// no run can use before anything starts.
	for _, bad := range [][]string{
		{"-overflow", "sideways"}, {"-days", "0"}, {"-log-level", "loud"}, {"-log-format", "xml"}, {"-no-such-flag"},
	} {
		if err := run(context.Background(), bad, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", bad)
		}
	}
	// The cadence is at most the lead time: a longer one leaves failures no
	// cycle could have warned of, and the refusal names the flag.
	for _, eval := range []string{"0", "-60", "301", "900", "NaN"} {
		if err := run(context.Background(), []string{"-eval", eval}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-eval") {
			t.Errorf("run(-eval %s) = %v, want a refusal naming -eval", eval, err)
		}
	}
	if err := run(context.Background(), []string{"-replay-columnar", filepath.Join(t.TempDir(), "absent.wire")}, io.Discard, io.Discard); err == nil {
		t.Error("run with a missing trace file succeeded")
	}
	if err := run(context.Background(), []string{"-fleet", "-tenants", "0"}, io.Discard, io.Discard); err == nil {
		t.Error("run -fleet -tenants 0 succeeded")
	}
	// A flag the selected mode never reads is refused by name, even at its
	// default value; an unset one never is.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "4"}, "-shards"},
		{[]string{"-act-budget", "2"}, "-act-budget"},
		{[]string{"-tenants", "100", "-listen", ":0"}, "-listen, -tenants"},
		{[]string{"-fleet", "-hotswap"}, "-hotswap"},
		{[]string{"-fleet", "-meta-weights", "1,1,1,1"}, "-meta-weights"},
		{[]string{"-replay-columnar", "x.wire", "-fleet"}, "-fleet"},
		{[]string{"-replay-columnar", "x.wire", "-days", "2"}, "-days"},
	} {
		if _, err := parseFlags(c.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), c.want+":") {
			t.Errorf("parseFlags(%v) = %v, want a refusal naming %s", c.args, err, c.want)
		}
	}
	for _, ok := range [][]string{
		{"-fleet", "-shards", "4", "-act-budget", "2", "-incident-dir", "d"},
		{"-replay-columnar", "x.wire", "-eval", "300", "-pprof"},
		{"-fleet", "-pprof", "-trace-dump", "3"},
		{"-hotswap", "-meta-weights", "1,1,1,1"},
	} {
		if _, err := parseFlags(ok, io.Discard, io.Discard); err != nil {
			t.Errorf("parseFlags(%v): %v", ok, err)
		}
	}
	// The eight tunables that became constants are gone as flags (the
	// service's TestProductConstants holds their values); -replay-eval went
	// when -eval became the cadence of every mode.
	for _, gone := range []string{
		"workers", "batch", "ledger-slack", "fleet-scopes",
		"drift-warmup", "drift-threshold", "drift-shadow-min", "drift-cooldown", "replay-eval",
	} {
		if _, err := parseFlags([]string{"-" + gone, "1"}, io.Discard, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined: -"+gone) {
			t.Errorf("parseFlags(-%s 1) = %v, want flag provided but not defined", gone, err)
		}
	}
	checkFlagsBoundAndDocumented(t)
}

// flagBindings names, for every flag pfmd registers, a non-default value and
// the service.Config field it must land in.
var flagBindings = map[string]struct {
	set  string
	got  func(c *service.Config) any
	want any
}{
	"addr":            {"127.0.0.1:1", func(c *service.Config) any { return c.Addr }, "127.0.0.1:1"},
	"seed":            {"5", func(c *service.Config) any { return c.Seed }, int64(5)},
	"days":            {"2.5", func(c *service.Config) any { return c.Days }, 2.5},
	"compress":        {"60", func(c *service.Config) any { return c.Compress }, 60.0},
	"queue":           {"8", func(c *service.Config) any { return c.QueueCapacity }, 8},
	"overflow":        {"drop-newest", func(c *service.Config) any { return c.Overflow }, runtime.DropNewest},
	"eval":            {"120", func(c *service.Config) any { return c.Eval }, 120.0},
	"shards":          {"3", func(c *service.Config) any { return c.Shards }, 3},
	"pprof":           {"true", func(c *service.Config) any { return c.Profiling }, true},
	"log-format":      {"json", func(c *service.Config) any { _, ok := c.Logger.Handler().(*slog.JSONHandler); return ok }, true},
	"log-level":       {"debug", func(c *service.Config) any { return c.Logger.Enabled(context.Background(), slog.LevelDebug) }, true},
	"trace-cap":       {"7", func(c *service.Config) any { return c.TraceCap }, 7},
	"trace-dump":      {"4", func(c *service.Config) any { return c.TraceDump }, 4},
	"trace-sample":    {"3", func(c *service.Config) any { return c.TraceSample }, 3},
	"ledger-window":   {"3600", func(c *service.Config) any { return c.LedgerWindow }, 3600.0},
	"meta-weights":    {"1,2,3,4", func(c *service.Config) any { return c.MetaWeights }, "1,2,3,4"},
	"hotswap":         {"true", func(c *service.Config) any { return c.Hotswap }, true},
	"fleet":           {"true", func(c *service.Config) any { return c.Fleet }, true},
	"tenants":         {"9", func(c *service.Config) any { return c.Tenants }, 9},
	"skew":            {"1.5", func(c *service.Config) any { return c.Skew }, 1.5},
	"fleet-trace":     {"f.wire", func(c *service.Config) any { return c.FleetTrace }, "f.wire"},
	"listen":          {":4545", func(c *service.Config) any { return c.Listen }, ":4545"},
	"act-budget":      {"2", func(c *service.Config) any { return c.ActBudget }, 2},
	"rate-limit":      {"500", func(c *service.Config) any { return c.RateLimit }, 500.0},
	"replay-columnar": {"t.wire", func(c *service.Config) any { return c.ReplayColumnar }, "t.wire"},
	"incident-dir":    {"d", func(c *service.Config) any { return c.IncidentDir }, "d"},
	"incident-cap":    {"5", func(c *service.Config) any { return c.IncidentCap }, 5},
	"incident-warn":   {"0.9", func(c *service.Config) any { return c.IncidentWarn }, 0.9},
}

// checkFlagsBoundAndDocumented walks the registered FlagSet: every flag sets
// the field flagBindings names (and nothing is registered that the table does
// not know), every flag appears in the package comment's synopsis and in
// README's pfmd section, and the synopsis names no flag that is not registered.
func checkFlagsBoundAndDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	synopsis, _, ok := strings.Cut(string(src), "\npackage main")
	if _, synopsis, ok = strings.Cut(synopsis, "// Usage:"); !ok {
		t.Fatal("main.go: no Usage: block in the package comment")
	}
	synopsis, _, _ = strings.Cut(synopsis, "\n//\n// -fleet")
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Run it as a service")
	if section, _, _ = strings.Cut(section, "\n## "); !ok {
		t.Fatal("README.md: no pfmd section")
	}
	flagToken := regexp.MustCompile("[^a-z0-9]-([a-z][a-z-]*[a-z])")
	named := func(text string) map[string]bool {
		set := map[string]bool{}
		for _, m := range flagToken.FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		return set
	}
	inSynopsis, inReadme := named(synopsis), named(section)

	registered := 0
	flagSet(&service.Config{}, io.Discard).VisitAll(func(f *flag.Flag) {
		registered++
		b, ok := flagBindings[f.Name]
		if !ok {
			t.Errorf("-%s is registered but flagBindings does not say which field it sets", f.Name)
			return
		}
		if b.set == f.DefValue {
			t.Errorf("-%s: the table's value %q is the default", f.Name, b.set)
		}
		c := &service.Config{}
		if err := flagSet(c, io.Discard).Parse([]string{"-" + f.Name + "=" + b.set}); err != nil {
			t.Errorf("-%s=%s: %v", f.Name, b.set, err)
		} else if got := b.got(c); got != b.want {
			t.Errorf("-%s=%s reached its field as %v, want %v", f.Name, b.set, got, b.want)
		}
		if !inSynopsis[f.Name] {
			t.Errorf("-%s is not in main.go's usage synopsis", f.Name)
		}
		if !inReadme[f.Name] {
			t.Errorf("-%s is not in README's pfmd section", f.Name)
		}
		delete(inSynopsis, f.Name)
	})
	if registered != len(flagBindings) || registered > 28 {
		t.Errorf("%d flags registered, flagBindings has %d, the budget is 28", registered, len(flagBindings))
	}
	for name := range inSynopsis {
		t.Errorf("the usage synopsis names -%s, which is not registered", name)
	}
}
