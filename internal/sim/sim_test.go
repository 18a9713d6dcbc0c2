package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		t    Time
		secs float64
	}{
		{0, 0},
		{Microsecond, 1e-6},
		{Millisecond, 1e-3},
		{Second, 1},
		{90 * Second, 90},
	}
	for _, c := range cases {
		if got := c.t.Seconds(); got != c.secs {
			t.Errorf("%v.Seconds() = %v, want %v", c.t, got, c.secs)
		}
		if got := FromSeconds(c.secs); got != c.t {
			t.Errorf("FromSeconds(%v) = %v, want %v", c.secs, got, c.t)
		}
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
	if got := FromSeconds(-1.5); got != -1500*Millisecond {
		t.Errorf("FromSeconds(-1.5) = %v", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []Time
	e.Schedule(30*Millisecond, func() { order = append(order, e.Now()) })
	e.Schedule(10*Millisecond, func() { order = append(order, e.Now()) })
	e.Schedule(20*Millisecond, func() { order = append(order, e.Now()) })
	e.Run(Second)
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v", i, order[i], want[i])
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Millisecond, func() { order = append(order, i) })
	}
	e.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("tied events ran out of scheduling order: %v", order)
		}
	}
}

// First-class events run before every ordinary event of their
// microsecond, whatever the scheduling order; each class keeps its own
// scheduling order, and an ordinary event scheduled at the current
// instant from a first-class handler runs behind the ordinary events
// already due then.
func TestFirstClassRunsAheadOfTies(t *testing.T) {
	e := NewEngine()
	var order []string
	add := func(name string) Handler { return func() { order = append(order, name) } }
	e.Schedule(5*Millisecond, add("o1"))
	e.ScheduleFirst(5*Millisecond, func() {
		order = append(order, "f1")
		e.Schedule(0, add("o3"))
	})
	e.ScheduleAt(5*Millisecond, add("o2"))
	e.ScheduleFirst(5*Millisecond, add("f2"))
	e.Schedule(4*Millisecond, func() { e.ScheduleFirst(Millisecond, add("f3")) })
	e.Run(Second)
	want := "[f1 f2 f3 o1 o2 o3]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}
}

// A first-class event due now could not run ahead of the ordinary event
// scheduling it, so a zero or negative first-class delay panics.
func TestScheduleFirstNonPositiveDelayPanics(t *testing.T) {
	for _, d := range []Time{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScheduleFirst(%v) did not panic", d)
				}
			}()
			NewEngine().ScheduleFirst(d, func() {})
		}()
	}
}

// A negative horizon runs nothing, even an event due at time 0.
func TestNegativeHorizonRunsNothing(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(0, func() { ran = true })
	e.Run(-1)
	if ran || e.Now() != 0 {
		t.Fatalf("Run(-1) ran=%v, clock %v; want nothing run at 0", ran, e.Now())
	}
	e.Run(0)
	if !ran {
		t.Fatal("Run(0) did not run the event due at 0")
	}
}

func TestScheduleBeyondMaxTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt(MaxTime+1) did not panic")
		}
	}()
	NewEngine().ScheduleAt(MaxTime+1, func() {})
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(Millisecond, func() {
		hits = append(hits, e.Now())
		e.Schedule(Millisecond, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run(Second)
	if len(hits) != 2 || hits[0] != Millisecond || hits[1] != 2*Millisecond {
		t.Fatalf("nested scheduling produced %v", hits)
	}
}

func TestHorizonStopsAndAdvancesClock(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(2*Second, func() { ran = true })
	e.Run(Second)
	if ran {
		t.Fatal("event past the horizon ran")
	}
	if e.Now() != Second {
		t.Fatalf("clock = %v after Run(1s), want 1s", e.Now())
	}
	if e.live != 1 {
		t.Fatalf("pending = %d, want 1", e.live)
	}
	// A second Run picks the event up.
	e.Run(3 * Second)
	if !ran {
		t.Fatal("event did not run on the extended horizon")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	id := e.Schedule(Millisecond, func() { ran = true })
	if !id.Valid() {
		t.Fatal("fresh event id not valid")
	}
	if !e.Cancel(id) {
		t.Fatal("cancel of pending event returned false")
	}
	if id.Valid() {
		t.Fatal("cancelled id still valid")
	}
	if e.Cancel(id) {
		t.Fatal("double cancel returned true")
	}
	e.Run(Second)
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelExecutedEvent(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(Millisecond, func() {})
	e.Run(Second)
	if e.Cancel(id) {
		t.Fatal("cancelling an executed event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	ids := make([]EventID, 10)
	for i := 0; i < 10; i++ {
		i := i
		ids[i] = e.Schedule(Time(i+1)*Millisecond, func() { got = append(got, i) })
	}
	e.Cancel(ids[4])
	e.Cancel(ids[7])
	e.Run(Second)
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(Second)
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
	if e.live != 7 {
		t.Fatalf("pending = %d after Stop, want 7", e.live)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		e.ScheduleAt(0, func() {})
	})
	e.Run(2 * Second)
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestRunAll(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(5*Second, func() { count++ })
	e.Schedule(10*Second, func() { count++ })
	e.run(math.MaxInt64)
	if count != 2 {
		t.Fatalf("RunAll executed %d events, want 2", count)
	}
	if e.Now() != 10*Second {
		t.Fatalf("clock = %v, want 10s", e.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i+1), func() {})
	}
	e.Run(Second)
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

// Property: random schedules always execute in non-decreasing time order,
// with ties in scheduling order.
func TestOrderingProperty(t *testing.T) {
	check := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 2
		r := rng.NewSource(seed).Stream("simtest", 0)
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var execd []rec
		for i := 0; i < n; i++ {
			i := i
			at := Time(r.Intn(1000)) * Millisecond
			e.ScheduleAt(at, func() { execd = append(execd, rec{e.Now(), i}) })
		}
		e.Run(2000 * Second)
		if len(execd) != n {
			return false
		}
		for i := 1; i < len(execd); i++ {
			if execd[i].at < execd[i-1].at {
				return false
			}
			if execd[i].at == execd[i-1].at && execd[i].seq < execd[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The schedule/execute cycle must not allocate once the arena has grown
// to the working set: slots are recycled through the free list and the
// radix queue's buckets keep their backing arrays, so the steady-state
// event loop is allocation-free (the closure below is hoisted out of the
// measured region by being allocated once).
func TestScheduleExecuteZeroAlloc(t *testing.T) {
	e := NewEngine()
	var churn func()
	churn = func() {
		if e.Now() < 100*Second {
			e.Schedule(Millisecond, churn)
		}
	}
	// Warm-up: grow the arena, free list, and buckets to steady state.
	e.Schedule(Millisecond, churn)
	e.Run(Second)

	allocs := testing.AllocsPerRun(100, func() {
		horizon := e.Now() + 100*Millisecond
		e.Run(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/execute allocated %.1f times per run, want 0", allocs)
	}
}

// Cancelled slots must drain and be reused rather than growing the arena.
func TestCancelledSlotsAreRecycled(t *testing.T) {
	e := NewEngine()
	for round := 0; round < 1000; round++ {
		id := e.Schedule(Millisecond, func() {})
		e.Cancel(id)
		e.Run(e.Now() + 2*Millisecond)
	}
	if got := len(e.arena); got > 4 {
		t.Fatalf("arena grew to %d slots under schedule/cancel churn, want <= 4", got)
	}
}

// A stale EventID (its slot recycled by a newer event) must neither
// validate nor cancel the new occupant.
func TestStaleEventIDAfterSlotReuse(t *testing.T) {
	e := NewEngine()
	ran := false
	old := e.Schedule(Millisecond, func() {})
	e.Run(Second) // executes and releases the slot
	fresh := e.Schedule(Millisecond, func() { ran = true })
	if old.Valid() {
		t.Fatal("stale id still valid after slot reuse")
	}
	if e.Cancel(old) {
		t.Fatal("stale id cancelled the slot's new occupant")
	}
	if !fresh.Valid() {
		t.Fatal("fresh id not valid")
	}
	e.Run(2 * Second)
	if !ran {
		t.Fatal("new occupant did not run")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var churn func()
	i := 0
	churn = func() {
		i++
		if i < b.N {
			e.Schedule(Microsecond, churn)
		}
	}
	e.Schedule(Microsecond, churn)
	b.ResetTimer()
	e.run(math.MaxInt64)
}

// holdDelays returns a fixed table of successor delays drawn from the
// simulator's own event mix: CSMA backoffs in 20 µs slots, data
// airtimes and tone pulses of 0.5–16 ms, and Poisson arrivals around a
// 200 ms mean.
func holdDelays(n int) []Time {
	r := rng.NewSource(7).Stream("hold", 0)
	out := make([]Time, n)
	for i := range out {
		switch u := r.Intn(10); {
		case u < 4:
			out[i] = Time(1+r.Intn(32)) * 20 * Microsecond
		case u < 7:
			out[i] = Time(500+r.Intn(15500)) * Microsecond
		default:
			out[i] = FromSeconds(0.2 * r.ExpFloat64())
		}
	}
	return out
}

// BenchmarkHold is the classic hold model: the queue holds a fixed
// number of pending events, and each executed event schedules one
// successor, so every op is one pop plus one push at that queue depth.
// Sixteen of the pending events stand for a scenario timeline: each
// re-arms itself minutes ahead, so they stay parked far in the future
// while the rest cycle through holdDelays. BenchmarkScheduleRun never
// holds more than one event and cannot see queue cost.
func BenchmarkHold(b *testing.B) {
	const timeline = 16
	for _, pending := range []int{128, 512} {
		b.Run(fmt.Sprint(pending), func(b *testing.B) {
			delays := holdDelays(4096)
			e := NewEngine()
			var stopAt uint64
			i := 0
			var near, far Handler
			near = func() {
				e.Schedule(delays[i&4095], near)
				i++
				if e.Executed() >= stopAt {
					e.Stop()
				}
			}
			far = func() {
				e.Schedule(Time(60+i%240)*Second, far)
				if e.Executed() >= stopAt {
					e.Stop()
				}
			}
			for k := 0; k < timeline; k++ {
				e.Schedule(Time(60+15*k)*Second, far)
			}
			for k := timeline; k < pending; k++ {
				e.Schedule(delays[i&4095], near)
				i++
			}
			// Warm up: let the delay mix spread the queue to steady state.
			stopAt = uint64(20 * pending)
			e.run(math.MaxInt64)
			b.ReportAllocs()
			b.ResetTimer()
			stopAt = e.Executed() + uint64(b.N)
			e.run(math.MaxInt64)
			b.StopTimer()
			if e.live != pending {
				b.Fatalf("pending = %d, want %d", e.live, pending)
			}
		})
	}
}
