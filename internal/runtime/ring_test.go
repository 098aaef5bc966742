package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"testing"
	"time"
)

// letPark gives goroutines that were just started time to reach their
// blocking point. It only widens coverage: every assertion below holds
// whether or not a producer had parked by the time the test moved on.
func letPark() {
	for i := 0; i < 50; i++ {
		stdruntime.Gosched()
	}
	time.Sleep(2 * time.Millisecond)
}

// pushAsync runs one Push on its own goroutine and returns its result
// channel.
func pushAsync(r *Ring[int], ctx context.Context, v int) <-chan error {
	done := make(chan error, 1)
	go func() { done <- r.Push(ctx, v) }()
	return done
}

func mustReturn(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: push never returned", what)
		return nil
	}
}

func mustStayParked(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s: push returned %v on a full ring", what, err)
	case <-time.After(10 * time.Millisecond):
	}
}

// TestRingDrainWrapAround: chunk drains keep FIFO order when the live run
// wraps the end of the buffer, for every split of the run across the seam.
func TestRingDrainWrapAround(t *testing.T) {
	const capacity = 8
	ctx := context.Background()
	for head := 0; head < capacity; head++ {
		r := NewRing[int](capacity, Block)
		buf := make([]int, capacity)
		// Advance the read position to head, then fill the ring so the run
		// wraps (for head > 0).
		for i := 0; i < head; i++ {
			if err := r.Push(ctx, -1); err != nil {
				t.Fatal(err)
			}
		}
		if head > 0 {
			if n := r.Drain(buf); n != head {
				t.Fatalf("head %d: pre-drain took %d", head, n)
			}
			r.Settle(head)
		}
		for i := 0; i < capacity; i++ {
			if err := r.Push(ctx, i); err != nil {
				t.Fatal(err)
			}
		}
		if d := r.Depth(); d != capacity {
			t.Fatalf("head %d: depth %d, want %d", head, d, capacity)
		}
		// Drain in two uneven chunks so both the wrapping and the
		// non-wrapping copy are exercised.
		next := 0
		for _, chunk := range []int{5, capacity} {
			n := r.Drain(buf[:chunk])
			for _, v := range buf[:n] {
				if v != next {
					t.Fatalf("head %d: drained %v, want %d next", head, buf[:n], next)
				}
				next++
			}
			r.Settle(n)
		}
		if next != capacity {
			t.Fatalf("head %d: drained %d values, want %d", head, next, capacity)
		}
		if p := r.Pending(); p != 0 {
			t.Errorf("head %d: pending %d after settle, want 0", head, p)
		}
	}
}

// TestRingDropPolicies: DropOldest evicts exactly the oldest value through
// OnEvict and never fails; DropNewest rejects the incoming value and leaves
// the backlog alone.
func TestRingDropPolicies(t *testing.T) {
	ctx := context.Background()
	buf := make([]int, 8)

	r := NewRing[int](3, DropOldest)
	var evicted []int
	r.OnEvict = func(v int) { evicted = append(evicted, v) }
	for i := 0; i < 5; i++ {
		if err := r.Push(ctx, i); err != nil {
			t.Fatalf("DropOldest push %d: %v", i, err)
		}
	}
	if n := r.Drain(buf); n != 3 || buf[0] != 2 || buf[1] != 3 || buf[2] != 4 {
		t.Errorf("DropOldest drained %v, want [2 3 4]", buf[:n])
	}
	if len(evicted) != 2 || evicted[0] != 0 || evicted[1] != 1 {
		t.Errorf("evicted %v, want [0 1]", evicted)
	}
	if p := r.Pending(); p != 3 {
		t.Errorf("pending %d with 3 drained-unsettled values, want 3", p)
	}

	r = NewRing[int](3, DropNewest)
	for i := 0; i < 5; i++ {
		err := r.Push(ctx, i)
		if want := i >= 3; errors.Is(err, ErrRejected) != want {
			t.Fatalf("DropNewest push %d: %v", i, err)
		}
	}
	if n := r.Drain(buf); n != 3 || buf[0] != 0 || buf[2] != 2 {
		t.Errorf("DropNewest drained %v, want [0 1 2]", buf[:n])
	}
}

// TestRingBlockParksUntilDrain: a Block push on a full ring parks, the next
// drain admits it, and a push after Close is refused.
func TestRingBlockParksUntilDrain(t *testing.T) {
	ctx := context.Background()
	r := NewRing[int](2, Block)
	for i := 0; i < 2; i++ {
		if err := r.Push(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	done := pushAsync(r, ctx, 2)
	mustStayParked(t, "full ring", done)
	buf := make([]int, 1)
	if n := r.Drain(buf); n != 1 || buf[0] != 0 {
		t.Fatalf("drain = %d %v", n, buf)
	}
	if err := mustReturn(t, "after drain", done); err != nil {
		t.Fatalf("parked push: %v", err)
	}
	r.Close()
	if err := r.Push(ctx, 9); !errors.Is(err, ErrClosed) {
		t.Errorf("push after Close: %v, want ErrClosed", err)
	}
	got := []int{}
	for {
		n := r.Drain(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("post-close drain %v, want [1 2]", got)
	}
}

// TestRingCancelWhileParked: a canceled park returns ctx.Err() without
// admitting the value, and leaves the ring usable.
func TestRingCancelWhileParked(t *testing.T) {
	r := NewRing[int](1, Block)
	if err := r.Push(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := pushAsync(r, ctx, 1)
	mustStayParked(t, "full ring", done)
	cancel()
	if err := mustReturn(t, "after cancel", done); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled push: %v, want context.Canceled", err)
	}
	if d, p := r.Depth(), r.Pending(); d != 1 || p != 1 {
		t.Errorf("depth %d pending %d after a canceled push, want 1 1", d, p)
	}
	r.Close()
	buf := make([]int, 4)
	if n := r.Drain(buf); n != 1 || buf[0] != 0 {
		t.Errorf("drain = %d %v, want the one admitted value", n, buf[:n])
	}
	if n := r.Drain(buf); n != 0 {
		t.Errorf("closed empty ring drained %d", n)
	}
}

// TestRingWakeTokenHandOn: one drained slot must end up used while a live
// producer is parked, even when the producer the drain woke is canceled at
// the same moment — a canceled producer that consumed the wake hands it on.
// Three producers park on a full one-slot ring; two are canceled while one
// slot is drained. Whoever was woken, exactly one of the three is admitted,
// and if it is neither canceled one it is the third, without another drain.
func TestRingWakeTokenHandOn(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	buf := make([]int, 1)
	for round := 0; round < rounds; round++ {
		r := NewRing[int](1, Block)
		if err := r.Push(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		ctxA, cancelA := context.WithCancel(context.Background())
		ctxB, cancelB := context.WithCancel(context.Background())
		ctxC, cancelC := context.WithCancel(context.Background())
		a, b, c := pushAsync(r, ctxA, 1), pushAsync(r, ctxB, 2), pushAsync(r, ctxC, 3)
		if round%4 != 0 {
			letPark()
		}
		go func() { cancelA(); cancelB() }()
		if n := r.Drain(buf); n != 1 {
			t.Fatalf("round %d: drain took %d", round, n)
		}
		admitted := 0
		for _, done := range []<-chan error{a, b} {
			switch err := mustReturn(t, "canceled producer", done); {
			case err == nil:
				admitted++
			case !errors.Is(err, context.Canceled):
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if admitted == 0 {
			// The freed slot belongs to the live producer now.
			if err := mustReturn(t, "live producer (wake token lost)", c); err != nil {
				t.Fatalf("round %d: live producer: %v", round, err)
			}
			admitted++
			cancelC()
		} else {
			// The slot is taken: c is parked behind it until canceled.
			cancelC()
			if err := mustReturn(t, "canceled live producer", c); err == nil {
				admitted++
			}
		}
		if admitted != 1 {
			t.Fatalf("round %d: %d producers admitted into one freed slot", round, admitted)
		}
		if d := r.Depth(); d != 1 {
			t.Fatalf("round %d: depth %d, want the freed slot used", round, d)
		}
	}
}

// TestRingCloseWithProducersParked: pushes parked when Close is called
// still complete as the consumer frees room, and Drain returns 0 only after
// the last of them has been admitted and drained.
func TestRingCloseWithProducersParked(t *testing.T) {
	const producers = 4
	ctx := context.Background()
	r := NewRing[int](1, Block)
	if err := r.Push(ctx, 0); err != nil {
		t.Fatal(err)
	}
	var parked [producers]<-chan error
	for i := range parked {
		parked[i] = pushAsync(r, ctx, i+1)
	}
	letPark()
	for i := range parked {
		mustStayParked(t, "full ring", parked[i])
	}
	r.Close()
	if err := r.Push(ctx, 99); !errors.Is(err, ErrClosed) {
		t.Fatalf("fresh push after Close: %v, want ErrClosed", err)
	}
	seen := map[int]bool{}
	buf := make([]int, 2)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			n := r.Drain(buf)
			if n == 0 {
				return
			}
			for _, v := range buf[:n] {
				seen[v] = true
			}
			r.Settle(n)
		}
	}()
	for i := range parked {
		if err := mustReturn(t, "parked at Close", parked[i]); err != nil {
			t.Errorf("producer %d parked at Close: %v, want admitted", i, err)
		}
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never saw closed ∧ empty ∧ nobody parked")
	}
	if len(seen) != producers+1 {
		t.Errorf("drained %d distinct values, want %d", len(seen), producers+1)
	}
	if p := r.Pending(); p != 0 {
		t.Errorf("pending %d, want 0", p)
	}
}

// TestRingCloseThenCancelLastParked: the consumer waiting out the last
// parked producer of a closed ring is released when that producer is
// canceled instead of admitted.
func TestRingCloseThenCancelLastParked(t *testing.T) {
	r := NewRing[int](1, Block)
	if err := r.Push(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := pushAsync(r, ctx, 1)
	mustStayParked(t, "full ring", done)
	r.Close()
	buf := make([]int, 1)
	if n := r.Drain(buf); n != 1 {
		t.Fatalf("drain = %d", n)
	}
	// The woken producer either takes the slot or, canceled first, gives
	// it up; the consumer must come back with 0 either way.
	cancel()
	err := mustReturn(t, "last parked", done)
	exit := make(chan int, 1)
	go func() {
		total := 0
		for {
			n := r.Drain(buf)
			if n == 0 {
				exit <- total
				return
			}
			total += n
		}
	}()
	select {
	case total := <-exit:
		if want := map[bool]int{true: 1, false: 0}[err == nil]; total != want {
			t.Errorf("drained %d more after close, want %d (push err %v)", total, want, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer stuck waiting for a producer that was canceled")
	}
}
