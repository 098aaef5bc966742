package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	stdruntime "runtime"
	"strings"
	"testing"
)

// TestResizeCeiling: a shard count past maxShards is refused before anything
// is built — by Resize, by New, and by POST /fleet/resize as a 400 naming
// shards. On an unstarted fleet the refusal leaves the shape, the shard
// metrics and the heap as they were (a 10⁹-shard resize would otherwise
// allocate a 10⁹-slot shard slice and a ring of 6.4·10¹⁰ points).
func TestResizeCeiling(t *testing.T) {
	clock := newTestClock(0)
	f, err := New(testFleetConfig(specs("a"), clock))
	if err != nil {
		t.Fatal(err)
	}
	shards, gen, drops := f.Shards(), f.Generation(), len(f.shardDrops)
	var before, after stdruntime.MemStats
	stdruntime.ReadMemStats(&before)
	err = f.Resize(maxShards + 1)
	stdruntime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("Resize(%d) = %v, want a refusal naming shards", maxShards+1, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("the refused resize allocated %d bytes", grew)
	}
	if f.Shards() != shards || f.Generation() != gen || len(f.shardDrops) != drops {
		t.Fatalf("after the refusal: shards %d gen %d shard counters %d, want %d %d %d",
			f.Shards(), f.Generation(), len(f.shardDrops), shards, gen, drops)
	}
	for _, body := range []string{fmt.Sprintf(`{"shards":%d}`, maxShards+1), `{"shards":1000000000}`} {
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fleet/resize", strings.NewReader(body)))
		if rec.Code != 400 || !strings.Contains(rec.Body.String(), "shards") {
			t.Fatalf("POST /fleet/resize %s = %d %q, want a 400 naming shards", body, rec.Code, rec.Body)
		}
	}
	if f.Shards() != shards || len(f.shardDrops) != drops {
		t.Fatalf("after the refused POSTs: shards %d, shard counters %d", f.Shards(), len(f.shardDrops))
	}
	if err := f.Resize(maxShards); err != nil {
		t.Fatalf("Resize(%d), the ceiling itself: %v", maxShards, err)
	}
	cfg := testFleetConfig(specs("a"), clock)
	cfg.Shards = maxShards + 1
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("New with %d shards = %v, want a refusal naming shards", cfg.Shards, err)
	}
}

// FuzzAdminBodies drives the admin verbs' bodies — POST /fleet/tenants (a
// TenantSpec) and POST /fleet/resize ({"shards": N}) — into an unstarted
// fleet, so no consumer goroutine starts whatever the shard count. Oracle: no
// panic, and the answer is the one the body calls for. A body the handler's
// decoder refuses is a 400 that says which body was bad. A decoded body that
// is invalid is a 4xx naming the field at fault: ID (empty, a separator, or
// taken by the fixture's tenant "a": 409), Criticality or RateLimit (negative
// or not finite), shards (outside 1..maxShards). Any other body is accepted
// and then undone (the tenant removed, one shard again), so the fleet stays
// small across inputs.
func FuzzAdminBodies(f *testing.F) {
	for _, seed := range []struct {
		resize bool
		body   string
	}{
		{false, `{"id":"web","criticality":2,"rateLimit":100}`},
		{false, `{"id":"web"}`},
		{false, `{"id":""}`},
		{false, `{"id":"duplicate-of-web","criticality":-1}`},
		{false, `{"id":"a"}`},
		{false, `{"id":"x|y"}`},
		{false, `{"id":"r","rateLimit":-1}`},
		{false, `{"id":"n","criticality":1e999}`},
		{false, `{"id":`},
		{true, `{"shards":4}`},
		{true, `{"shards":0}`},
		{true, fmt.Sprintf(`{"shards":%d}`, maxShards+1)},
		{true, `{"shards":1000000000}`},
		{true, `{"shards":"4"}`},
		{true, `[]`},
	} {
		f.Add(seed.resize, []byte(seed.body))
	}
	fl, err := New(testFleetConfig(specs("a"), newTestClock(0)))
	if err != nil {
		f.Fatal(err)
	}
	if err := fl.Resize(1); err != nil {
		f.Fatal(err)
	}
	h := fl.Handler()
	f.Fuzz(func(t *testing.T, resize bool, body []byte) {
		path, limit := "/fleet/tenants", int64(1<<16)
		if resize {
			path, limit = "/fleet/resize", 1<<12
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		got := rec.Body.String()
		refused := func(code int, names string) {
			t.Helper()
			if rec.Code != code || !strings.Contains(got, names) {
				t.Fatalf("POST %s %q = %d %q, want a %d naming %s", path, body, rec.Code, got, code, names)
			}
		}
		// The handler's own decoding, to tell which body it was handed.
		dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), limit))
		if resize {
			var b struct {
				Shards int `json:"shards"`
			}
			switch {
			case dec.Decode(&b) != nil:
				refused(400, "bad resize body")
			case b.Shards < 1 || b.Shards > maxShards:
				refused(400, "shards")
			case rec.Code != 200 || fl.Shards() != b.Shards:
				t.Fatalf("POST %s %q = %d %q with %d shards, want 200 and %d", path, body, rec.Code, got, fl.Shards(), b.Shards)
			default:
				if err := fl.Resize(1); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		var spec TenantSpec
		bad := func(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }
		switch {
		case dec.Decode(&spec) != nil:
			refused(400, "bad tenant spec")
		case spec.ID == "" || strings.ContainsAny(spec.ID, "|\n\x1f"):
			refused(400, "ID")
		case spec.ID == "a":
			refused(409, "ID")
		case bad(spec.Criticality):
			refused(400, "Criticality")
		case bad(spec.RateLimit):
			refused(400, "RateLimit")
		case rec.Code != 201:
			t.Fatalf("POST %s %q = %d %q, want 201", path, body, rec.Code, got)
		default:
			if err := fl.RemoveTenant(spec.ID); err != nil {
				t.Fatal(err)
			}
		}
	})
}
