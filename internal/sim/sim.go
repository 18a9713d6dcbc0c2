// Package sim implements the deterministic discrete-event engine the whole
// simulation runs on.
//
// Time is an int64 count of microseconds. Integer time keeps the future
// event list exactly ordered (no floating-point ties) and makes runs
// bit-reproducible. One microsecond of resolution is two orders of
// magnitude below the shortest physical interval in the model (a 20 µs
// backoff slot), so quantization is immaterial.
//
// Events due at the same time run by class, then in the order they were
// scheduled, which is the property that makes event execution
// deterministic. There are two classes: an event scheduled with
// ScheduleFirst runs before every ordinary event due in the same
// microsecond. A first-class delay must be positive, since the event
// that schedules it may itself be an ordinary event of the current
// microsecond.
//
// The future event list is a monotone radix queue over a slot arena with
// a free list. Each entry is filed under a key that packs its time and
// class: at<<1 for a first-class entry and at<<1|1 for an ordinary one,
// which halves the time range to 2^62 µs. Events can only be scheduled
// at or after the current key, so every key is at least the last
// extracted one, and each entry sits in one of 64 buckets chosen by the
// highest bit in which its key differs from that last key. Bucket 0
// holds the entries due at exactly the last key, in scheduling order;
// when it runs dry, the lowest non-empty bucket is redistributed, which
// moves each entry to a strictly lower bucket. Entries with the same key
// always share a bucket and are appended and moved in order, so
// scheduling order needs no sequence number. The steady-state
// schedule/execute cycle performs no heap allocations: slots are
// recycled as events execute or cancelled entries drain out.
// Cancellation is lazy — a cancelled event stays queued until it
// surfaces and is discarded — so the queue only ever pushes and pops.
// EventIDs carry a generation counter so an ID held across a slot's
// reuse can neither cancel nor validate the newer event.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a simulation timestamp in microseconds.
type Time int64

// MaxTime is the latest time an event can be scheduled at: a queue key
// spends one bit on the event's class.
const MaxTime Time = 1<<62 - 1

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

// entry is one queued event. Its key (time and class, see the package
// comment) is carried in the bucket itself, so redistributing a bucket
// touches only that bucket's array; the arena is consulted once per
// extracted event.
type entry struct {
	key  uint64
	slot int32
}

// Key classes: the low bit of a queue key.
const (
	first    = 0
	ordinary = 1
)

// Engine is a single-threaded discrete-event simulation kernel.
type Engine struct {
	now      Time
	arena    []event
	free     []int32
	live     int // pending, non-cancelled events
	executed uint64
	stopped  bool

	// The radix queue. Every queued entry's key is at least last, the
	// key of the last refill (or the clock's first-class key, once the
	// queue empties), and the entry sits in buckets[bits.Len64(key^last)].
	// Bucket 0 is consumed from head onward; it holds entries keyed
	// exactly last, in scheduling order. nonEmpty has bit i set while
	// buckets[i] holds entries.
	last     uint64
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
// from a fresh engine: event ordering depends only on times, classes
// and scheduling order, never on slot indices or absolute generation
// numbers.
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

// Schedule runs fn after delay as an ordinary event. A negative delay
// panics: the caller has a logic error, and silently clamping would hide
// it.
func (e *Engine) Schedule(delay Time, fn Handler) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at %v", delay, e.now))
	}
	return e.at(e.now+delay, ordinary, fn)
}

// ScheduleFirst runs fn after delay as a first-class event: ahead of
// every ordinary event due in the same microsecond, and behind the
// first-class events scheduled for it earlier. The delay must be
// positive, because the running event may be an ordinary one of the
// current microsecond; a zero or negative delay panics.
func (e *Engine) ScheduleFirst(delay Time, fn Handler) EventID {
	if delay <= 0 {
		panic(fmt.Sprintf("sim: first-class delay %v is not positive at %v", delay, e.now))
	}
	return e.at(e.now+delay, first, fn)
}

// ScheduleAt runs fn at the given absolute time as an ordinary event.
// The time must not be in the past.
func (e *Engine) ScheduleAt(at Time, fn Handler) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past at %v", at, e.now))
	}
	return e.at(at, ordinary, fn)
}

func (e *Engine) at(at Time, class uint64, fn Handler) EventID {
	if fn == nil {
		panic("sim: nil handler")
	}
	if at > MaxTime {
		panic(fmt.Sprintf("sim: time %v is past MaxTime", at))
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
	e.push(entry{key: uint64(at)<<1 | class, slot: slot})
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

// run executes events due at or before horizon until the queue has
// none left or Stop is called.
func (e *Engine) run(horizon Time) {
	e.stopped = false
	if horizon < 0 {
		return // no key is due; the conversion below would wrap
	}
	// The largest key due at or before horizon. A horizon past MaxTime
	// gives a key above every schedulable one, which is what it means.
	due := uint64(horizon)<<1 | ordinary
	for !e.stopped {
		slot, ok := e.pop(due)
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

// push files an entry under the highest bit in which its key differs
// from last. Entries keyed last itself land in bucket 0 behind the ones
// already there, which keeps bucket 0 in scheduling order.
func (e *Engine) push(q entry) {
	i := bits.Len64(q.key ^ e.last)
	e.buckets[i] = append(e.buckets[i], q)
	e.nonEmpty |= 1 << i
}

// pop removes and returns the slot of the next entry in key and then
// scheduling order, or reports false when no entry's key is at most due.
func (e *Engine) pop(due uint64) (int32, bool) {
	if e.head == len(e.buckets[0]) && !e.refill(due) {
		return 0, false
	}
	// After a Stop, bucket 0 can still hold entries keyed last while
	// the next Run asks for an earlier horizon.
	if e.last > due {
		return 0, false
	}
	slot := e.buckets[0][e.head].slot
	e.head++
	return slot, true
}

// refill moves the earliest entries into the drained bucket 0: it takes
// the lowest non-empty bucket, makes its minimum key the new last, and
// redistributes the bucket's entries relative to it. Each entry lands in
// a strictly lower bucket, and entries with the same key keep their
// relative order. It refuses, leaving the queue as it is, when that
// minimum is past due: last must never pass a key that can still be
// scheduled once the clock moves to the horizon. An empty queue rebases
// last to the clock's first-class key, since cancelled entries may have
// carried it past now; every key scheduled from now on is at least that.
func (e *Engine) refill(due uint64) bool {
	e.buckets[0] = e.buckets[0][:0]
	e.head = 0
	e.nonEmpty &^= 1
	if e.nonEmpty == 0 {
		e.last = uint64(e.now) << 1
		return false
	}
	i := bits.TrailingZeros64(e.nonEmpty)
	b := e.buckets[i]
	min := b[0].key
	for _, q := range b[1:] {
		if q.key < min {
			min = q.key
		}
	}
	if min > due {
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
