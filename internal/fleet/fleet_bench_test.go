package fleet

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkFleetChurn measures the membership-churn control plane on a
// live fleet of 500 tenants: one AddTenant+RemoveTenant round trip per op
// (tenant/), and one shard-count flip with its queue handoff per op
// (resize/). Both install a full membership generation — the cost scales
// with fleet size, not backlog, since queues move by pointer.
func BenchmarkFleetChurn(b *testing.B) {
	base := func(b *testing.B) *Fleet {
		b.Helper()
		const tenants = 500
		clock := newTestClock(0)
		sp := make([]TenantSpec, tenants)
		for i := range sp {
			sp[i] = TenantSpec{ID: fmt.Sprintf("t%04d", i)}
		}
		cfg := testFleetConfig(sp, clock)
		cfg.Shards = 4
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("tenant", func(b *testing.B) {
		f := base(b)
		defer func() { _ = f.Stop(context.Background()) }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.AddTenant(TenantSpec{ID: "xchurn"}); err != nil {
				b.Fatal(err)
			}
			if err := f.RemoveTenant("xchurn"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resize", func(b *testing.B) {
		f := base(b)
		defer func() { _ = f.Stop(context.Background()) }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f.Resize(4 + i%2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
