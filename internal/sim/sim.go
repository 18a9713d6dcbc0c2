// Package sim implements the deterministic discrete-event engine the whole
// simulation runs on.
//
// Time is an int64 count of microseconds. Integer time keeps the future
// event list exactly ordered (no floating-point ties) and makes runs
// bit-reproducible. One microsecond of resolution is two orders of
// magnitude below the shortest physical interval in the model (a 20 µs
// backoff slot), so quantization is immaterial.
//
// Events due at the same time run in the order they were scheduled, which
// is the property that makes event execution deterministic.
//
// The future event list is a monotone radix queue over a slot arena with
// a free list. Events can only be scheduled at or after the current
// time, so every key is at least the last extracted time, and each entry
// sits in one of 64 buckets chosen by the highest bit in which its time
// differs from that last time. Bucket 0 holds the entries due at exactly
// the last time, in scheduling order; when it runs dry, the lowest
// non-empty bucket is redistributed, which moves each entry to a
// strictly lower bucket. Entries due at the same time always share a
// bucket and are appended and moved in order, so scheduling order needs
// no sequence number. The steady-state schedule/execute cycle performs
// no heap allocations: slots are recycled as events execute or cancelled
// entries drain out. Cancellation is lazy — a cancelled event stays
// queued until it surfaces and is discarded — so the queue only ever
// pushes and pops. EventIDs carry a generation counter so an ID held
// across a slot's reuse can neither cancel nor validate the newer event.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a simulation timestamp in microseconds.
type Time int64

// Duration constructors and conversions.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a timestamp (or duration) to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a timestamp (or duration) to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds into a Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time {
	if s >= 0 {
		return Time(s*1e6 + 0.5)
	}
	return Time(s*1e6 - 0.5)
}

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Handler is an event callback. It runs at its scheduled time with the
// engine clock already advanced.
type Handler func()

type eventState uint8

const (
	evFree eventState = iota
	evPending
	evCancelled
)

// event is one arena slot. Slots are recycled through the free list; gen
// distinguishes successive occupants so stale EventIDs stay inert.
type event struct {
	at    Time
	fn    Handler
	gen   uint32
	state eventState
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is never valid.
type EventID struct {
	eng  *Engine
	slot int32
	gen  uint32
}

// Valid reports whether the ID refers to a still-pending event.
func (id EventID) Valid() bool {
	if id.eng == nil {
		return false
	}
	ev := &id.eng.arena[id.slot]
	return ev.gen == id.gen && ev.state == evPending
}

// entry is one queued event. Its time is carried in the bucket itself,
// so redistributing a bucket touches only that bucket's array; the arena
// is consulted once per extracted event.
type entry struct {
	at   Time
	slot int32
}

// Engine is a single-threaded discrete-event simulation kernel.
type Engine struct {
	now      Time
	arena    []event
	free     []int32
	live     int // pending, non-cancelled events
	executed uint64
	stopped  bool

	// The radix queue. Every queued entry is due at or after last, the
	// time of the last refill (or the clock, once the queue empties), and
	// sits in buckets[bits.Len64(at^last)].
	// Bucket 0 is consumed from head onward; it holds entries due at
	// exactly last, in scheduling order. nonEmpty has bit i set while
	// buckets[i] holds entries.
	last     Time
	head     int
	nonEmpty uint64
	buckets  [64][]entry
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Reset rewinds the engine to the zero state of a fresh NewEngine while
// keeping the arena, free list, and bucket backing arrays, so a reused
// engine schedules its first events without growing anything. Every
// pending or cancelled slot is drained with its generation bumped, so
// EventIDs issued before the reset can neither cancel nor validate
// events of the next run. Behaviour after Reset is indistinguishable
// from a fresh engine: event ordering depends only on times and
// scheduling order, never on slot indices or absolute generation numbers.
func (e *Engine) Reset() {
	for slot := range e.arena {
		if e.arena[slot].state != evFree {
			e.release(int32(slot))
		}
	}
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	e.last, e.head, e.nonEmpty = 0, 0, 0
	e.now = 0
	e.live = 0
	e.executed = 0
	e.stopped = false
}

// Executed returns the number of events executed so far (for tests and
// performance accounting).
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.live }

// Schedule runs fn after delay. A negative delay panics: the caller has a
// logic error, and silently clamping would hide it.
func (e *Engine) Schedule(delay Time, fn Handler) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, e.now))
	}
	return e.at(e.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute time, which must not be in the
// past.
func (e *Engine) ScheduleAt(at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past at %v", at, e.now))
	}
	return e.at(at, fn)
}

func (e *Engine) at(at Time, fn Handler) EventID {
	if fn == nil {
		panic("sim: nil handler")
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		slot = int32(len(e.arena) - 1)
	}
	ev := &e.arena[slot]
	ev.at = at
	ev.fn = fn
	ev.state = evPending
	e.live++
	e.push(entry{at: at, slot: slot})
	return EventID{eng: e, slot: slot, gen: ev.gen}
}

// release returns an executed or drained slot to the free list, bumping
// its generation so outstanding EventIDs go stale.
func (e *Engine) release(slot int32) {
	ev := &e.arena[slot]
	ev.fn = nil
	ev.gen++
	ev.state = evFree
	e.free = append(e.free, slot)
}

// Cancel removes a pending event. Cancelling an already-executed or
// already-cancelled event is a no-op and returns false. The slot drains
// out of the queue lazily when it surfaces.
func (e *Engine) Cancel(id EventID) bool {
	if id.eng != e || !id.Valid() {
		return false
	}
	e.arena[id.slot].state = evCancelled
	e.live--
	return true
}

// Stop makes the current Run call return after the in-flight event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the future event list is
// empty, the horizon is passed, or Stop is called. Events with timestamps
// strictly greater than horizon are left in the queue; the clock is
// advanced to horizon on normal completion so Now() is well-defined.
func (e *Engine) Run(horizon Time) {
	e.run(horizon)
	if !e.stopped && e.now < horizon {
		e.now = horizon
	}
}

// RunAll executes every pending event regardless of horizon. Useful in
// tests; production runs should bound time with Run.
func (e *Engine) RunAll() { e.run(math.MaxInt64) }

// run executes events due at or before horizon until the queue has
// none left or Stop is called.
func (e *Engine) run(horizon Time) {
	e.stopped = false
	for !e.stopped {
		slot, ok := e.pop(horizon)
		if !ok {
			return
		}
		ev := &e.arena[slot]
		if ev.state == evCancelled {
			e.release(slot)
			continue
		}
		fn := ev.fn
		e.now = ev.at
		e.live--
		e.executed++
		e.release(slot)
		fn()
	}
}

// push files an entry under the highest bit in which its time differs
// from last. Entries due at last itself land in bucket 0 behind the
// ones already there, which keeps bucket 0 in scheduling order.
func (e *Engine) push(q entry) {
	i := bits.Len64(uint64(q.at ^ e.last))
	e.buckets[i] = append(e.buckets[i], q)
	e.nonEmpty |= 1 << i
}

// pop removes and returns the slot of the next entry in time and then
// scheduling order, or reports false when no entry is due at or before
// horizon.
func (e *Engine) pop(horizon Time) (int32, bool) {
	if e.head == len(e.buckets[0]) && !e.refill(horizon) {
		return 0, false
	}
	// After a Stop, bucket 0 can still hold entries due at last while
	// the next Run asks for an earlier horizon.
	if e.last > horizon {
		return 0, false
	}
	slot := e.buckets[0][e.head].slot
	e.head++
	return slot, true
}

// refill moves the earliest entries into the drained bucket 0: it takes
// the lowest non-empty bucket, makes its minimum time the new last, and
// redistributes the bucket's entries relative to it. Each entry lands in
// a strictly lower bucket, and entries due at the same time keep their
// relative order. It refuses, leaving the queue as it is, when that
// minimum lies past the horizon: last must never pass a time the clock
// can still be set to. An empty queue rebases last to the clock, since
// cancelled entries may have carried it past now.
func (e *Engine) refill(horizon Time) bool {
	e.buckets[0] = e.buckets[0][:0]
	e.head = 0
	e.nonEmpty &^= 1
	if e.nonEmpty == 0 {
		e.last = e.now
		return false
	}
	i := bits.TrailingZeros64(e.nonEmpty)
	b := e.buckets[i]
	min := b[0].at
	for _, q := range b[1:] {
		if q.at < min {
			min = q.at
		}
	}
	if min > horizon {
		return false
	}
	e.last = min
	for _, q := range b {
		e.push(q)
	}
	e.buckets[i] = b[:0]
	e.nonEmpty &^= 1 << i
	return true
}
