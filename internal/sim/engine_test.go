package sim

import (
	"math"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.Schedule(3, func() { order = append(order, 3) }))
	must(e.Schedule(1, func() { order = append(order, 1) }))
	must(e.Schedule(2, func() { order = append(order, 2) }))
	if n := e.Run(10); n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %g, want 10", e.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		if err := e.Schedule(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(5)
	for i, got := range order {
		if got != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestRunHorizonLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	ran := false
	if err := e.Schedule(10, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	// A later Run picks it up.
	e.Run(10)
	if !ran {
		t.Fatal("event at horizon boundary did not run")
	}
}

func TestEventAtExactHorizonRuns(t *testing.T) {
	e := NewEngine()
	ran := false
	if err := e.ScheduleAt(5, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if !ran {
		t.Fatal("event exactly at horizon did not run")
	}
}

func TestScheduleValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Fatal("negative delay accepted")
	}
	if err := e.Schedule(math.NaN(), func() {}); err == nil {
		t.Fatal("NaN delay accepted")
	}
	if err := e.Schedule(math.Inf(1), func() {}); err == nil {
		t.Fatal("Inf delay accepted")
	}
	if err := e.ScheduleAt(1, nil); err == nil {
		t.Fatal("nil action accepted")
	}
	e.Run(10)
	if err := e.ScheduleAt(5, func() {}); err == nil {
		t.Fatal("scheduling in the past accepted")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	var chain func()
	chain = func() {
		times = append(times, e.Now())
		if len(times) < 4 {
			if err := e.Schedule(1, chain); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	if err := e.Schedule(1, chain); err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	want := []float64{1, 2, 3, 4}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	err := e.Every(2, func() bool {
		ticks = append(ticks, e.Now())
		return len(ticks) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(100)
	want := []float64{2, 4, 6}
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v", ticks)
		}
	}
}

func TestEveryValidation(t *testing.T) {
	e := NewEngine()
	if err := e.Every(0, func() bool { return false }); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := e.Every(-3, func() bool { return false }); err == nil {
		t.Fatal("negative period accepted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		var log []float64
		_ = e.Every(1.5, func() bool {
			log = append(log, e.Now())
			return e.Now() < 10
		})
		_ = e.Schedule(4, func() { log = append(log, -e.Now()) })
		e.Run(20)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replays differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverge at %d: %v vs %v", i, a, b)
		}
	}
}
