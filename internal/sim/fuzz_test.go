package sim

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
)

// queue is the surface FuzzEngineOrder drives: the Engine, or the
// reference model that sorts its pending entries. schedule, scheduleAt
// and scheduleFirst return a handle, which is the number of events
// scheduled before this one on that queue.
type queue interface {
	schedule(delay Time, fn Handler) int
	scheduleAt(at Time, fn Handler) int
	scheduleFirst(delay Time, fn Handler) int
	cancel(h int) bool
	valid(h int) bool
	run(horizon Time)
	runAll()
	stop()
	reset()
	now() Time
	pending() int
	executed() uint64
}

type engineQueue struct {
	e   *Engine
	ids []EventID
}

func (q *engineQueue) schedule(d Time, fn Handler) int {
	q.ids = append(q.ids, q.e.Schedule(d, fn))
	return len(q.ids) - 1
}

func (q *engineQueue) scheduleAt(at Time, fn Handler) int {
	q.ids = append(q.ids, q.e.ScheduleAt(at, fn))
	return len(q.ids) - 1
}

func (q *engineQueue) scheduleFirst(d Time, fn Handler) int {
	q.ids = append(q.ids, q.e.ScheduleFirst(d, fn))
	return len(q.ids) - 1
}

func (q *engineQueue) cancel(h int) bool { return q.e.Cancel(q.ids[h]) }
func (q *engineQueue) valid(h int) bool  { return q.ids[h].Valid() }
func (q *engineQueue) run(horizon Time)  { q.e.Run(horizon) }
func (q *engineQueue) runAll()           { q.e.run(math.MaxInt64) }
func (q *engineQueue) stop()             { q.e.Stop() }
func (q *engineQueue) reset()            { q.e.Reset() }
func (q *engineQueue) now() Time         { return q.e.Now() }
func (q *engineQueue) pending() int      { return q.e.live }
func (q *engineQueue) executed() uint64  { return q.e.Executed() }

// refQueue is the reference model: a flat list of every event ever
// scheduled, and the handles of the pending ones kept sorted by
// (at, class, seq), so the next event is always pend[0].
type refQueue struct {
	evs     []refEvent
	pend    []int
	t       Time
	seq     uint64
	execd   uint64
	stopped bool
}

// refEvent is one scheduled event of the reference. class is 0 for a
// first-class event and 1 for an ordinary one.
type refEvent struct {
	at      Time
	class   int
	seq     uint64
	fn      Handler
	pending bool
}

func (q *refQueue) schedule(d Time, fn Handler) int      { return q.insert(q.t+d, 1, fn) }
func (q *refQueue) scheduleAt(at Time, fn Handler) int   { return q.insert(at, 1, fn) }
func (q *refQueue) scheduleFirst(d Time, fn Handler) int { return q.insert(q.t+d, 0, fn) }

func (q *refQueue) insert(at Time, class int, fn Handler) int {
	h := len(q.evs)
	q.evs = append(q.evs, refEvent{at: at, class: class, seq: q.seq, fn: fn, pending: true})
	q.seq++
	i, _ := slices.BinarySearchFunc(q.pend, h, q.order)
	q.pend = slices.Insert(q.pend, i, h)
	return h
}

func (q *refQueue) order(a, b int) int {
	ea, eb := &q.evs[a], &q.evs[b]
	return cmp.Or(cmp.Compare(ea.at, eb.at), cmp.Compare(ea.class, eb.class), cmp.Compare(ea.seq, eb.seq))
}

func (q *refQueue) cancel(h int) bool {
	if !q.evs[h].pending {
		return false
	}
	q.evs[h].pending = false
	i, _ := slices.BinarySearchFunc(q.pend, h, q.order)
	q.pend = slices.Delete(q.pend, i, i+1)
	return true
}

func (q *refQueue) valid(h int) bool { return q.evs[h].pending }

func (q *refQueue) drain(horizon Time) {
	q.stopped = false
	for !q.stopped && len(q.pend) > 0 && q.evs[q.pend[0]].at <= horizon {
		h := q.pend[0]
		q.pend = slices.Delete(q.pend, 0, 1)
		q.evs[h].pending = false
		q.t = q.evs[h].at
		q.execd++
		q.evs[h].fn()
	}
}

func (q *refQueue) run(horizon Time) {
	q.drain(horizon)
	if !q.stopped && q.t < horizon {
		q.t = horizon
	}
}

func (q *refQueue) runAll() { q.drain(math.MaxInt64) }
func (q *refQueue) stop()   { q.stopped = true }

func (q *refQueue) reset() {
	for _, h := range q.pend {
		q.evs[h].pending = false
	}
	q.pend = q.pend[:0]
	q.t, q.seq, q.execd, q.stopped = 0, 0, 0, false
}

func (q *refQueue) now() Time        { return q.t }
func (q *refQueue) pending() int     { return len(q.pend) }
func (q *refQueue) executed() uint64 { return q.execd }

// Fuzz program encoding. An input is a sequence of operations; each
// starts with an opcode byte (taken modulo opCount) followed by its
// arguments. Missing bytes read as zero, and the program ends with the
// input or after maxOps operations.
const (
	opSchedule   = iota // spec
	opScheduleAt        // spec; scheduled at the resolved absolute time
	opCancel            // k: cancel handle k mod handles, live or not
	opCancelNext        // cancel the next-due live event
	opRun               // mode [delayKind delayArg]: Run(h), see the h* modes
	opRunAll
	opReset         // Reset, then check every earlier handle is stale
	opValid         // k: Valid of handle k mod handles
	opScheduleFirst // spec; first-class, and its descendants alternate class
	opCount
)

// A spec is [delayKind, delayArg, act] followed by a child spec when
// the act asks for one. act's bits, applied in this order inside the
// event's handler: 4 cancels the next-due event, 1 schedules the child,
// 2 calls Stop. A child is scheduled relative to the clock. A tree
// scheduled by opScheduleFirst alternates classes by depth, so it
// schedules ordinary events from first-class handlers and first-class
// events from ordinary ones; a first-class delay that resolves to zero
// is taken as 1 µs, since the engine requires it to be positive.
const (
	actChild      = 1
	actStop       = 2
	actCancelNext = 4
)

// Delay kinds, resolved against the clock when the event is scheduled.
const (
	dZero   = iota // now
	dOne           // now + 1 µs
	dTie           // the time of handle arg mod handles, if not past
	dMicros        // now + arg µs
	dMillis        // now + arg ms
	dFar           // now + 2^32 µs + arg·2^24 µs
	dPow2          // now + 2^(arg mod 40) µs
	dCarry         // the next multiple of 2^(arg mod 40) µs after now
	dKinds
)

// Run horizon modes: at, just below and just above the next due time,
// or now plus a delay spec.
const (
	hAt = iota
	hBelow
	hAbove
	hDelay
	hModes
)

type spec struct {
	delayKind, delayArg byte
	act                 byte
	first               bool
	child               *spec
}

// maxSchedules bounds the events one program schedules, so handlers
// that schedule children always let RunAll terminate. maxOps bounds the
// operations it runs: the fuzzer minimizes every new interesting input,
// and bytes past the last operation that runs are free to trim.
const (
	maxSchedules = 128
	maxOps       = 64
)

type reader struct {
	b []byte
	i int
}

func (r *reader) done() bool { return r.i >= len(r.b) }

func (r *reader) next() byte {
	if r.done() {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *reader) spec(depth int) *spec {
	sp := &spec{delayKind: r.next() % dKinds, delayArg: r.next(), act: r.next()}
	if sp.act&actChild != 0 && depth < 3 {
		sp.child = r.spec(depth + 1)
	}
	return sp
}

// obs is one observation in a run's trace.
type obs struct {
	kind string
	a, b int64
}

// driver runs one decoded program against a queue and records what it
// observes. Its own bookkeeping (the time, class, sequence, and
// liveness of every handle) picks targets such as the next-due event,
// so both queues see the same calls for as long as they agree.
type driver struct {
	q      queue
	hs     []handle
	epoch  int
	seq    uint64
	budget int
	trace  []obs
}

type handle struct {
	at    Time
	first bool
	seq   uint64
	epoch int
	live  bool
}

// before reports whether handle a is due before handle b in
// (time, class, sequence) order.
func (a handle) before(b handle) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.first != b.first {
		return a.first
	}
	return a.seq < b.seq
}

func (d *driver) observe(kind string, a, b int64) {
	d.trace = append(d.trace, obs{kind, a, b})
}

func (d *driver) state() {
	d.observe("now", int64(d.q.now()), 0)
	d.observe("pending/executed", int64(d.q.pending()), int64(d.q.executed()))
}

func (d *driver) resolve(kind, arg byte, now Time) Time {
	switch kind {
	case dZero:
		return now
	case dOne:
		return now + 1
	case dTie:
		if n := len(d.hs); n > 0 {
			if at := d.hs[int(arg)%n].at; at >= now {
				return at
			}
		}
		return now
	case dMicros:
		return now + Time(arg)
	case dMillis:
		return now + Time(arg)*Millisecond
	case dFar:
		return now + 1<<32 + Time(arg)<<24
	case dPow2:
		return now + 1<<(arg%40)
	default:
		return (now | (1<<(arg%40) - 1)) + 1
	}
}

func (d *driver) schedule(sp *spec, absolute bool) {
	if d.budget == 0 {
		return
	}
	d.budget--
	now := d.q.now()
	at := d.resolve(sp.delayKind, sp.delayArg, now)
	if sp.first && at == now {
		at = now + 1
	}
	h := len(d.hs)
	d.hs = append(d.hs, handle{at: at, first: sp.first, seq: d.seq, epoch: d.epoch, live: true})
	d.seq++
	fn := func() { d.fire(h, sp) }
	var got int
	switch {
	case sp.first:
		got = d.q.scheduleFirst(at-now, fn)
	case absolute:
		got = d.q.scheduleAt(at, fn)
	default:
		got = d.q.schedule(at-now, fn)
	}
	if got != h {
		panic(fmt.Sprintf("queue returned handle %d, want %d", got, h))
	}
}

func (d *driver) fire(h int, sp *spec) {
	d.hs[h].live = false
	d.observe("fire", int64(d.q.now()), int64(d.hs[h].seq))
	if sp.act&actCancelNext != 0 {
		d.cancelNext()
	}
	if sp.child != nil {
		d.schedule(sp.child, false)
	}
	if sp.act&actStop != 0 {
		d.q.stop()
	}
}

// nextDue returns the live handle first in (at, class, seq) order, or
// -1.
func (d *driver) nextDue() int {
	best := -1
	for h, hd := range d.hs {
		if !hd.live || hd.epoch != d.epoch {
			continue
		}
		if best < 0 || hd.before(d.hs[best]) {
			best = h
		}
	}
	return best
}

func (d *driver) cancel(h int) {
	if d.hs[h].epoch == d.epoch {
		d.hs[h].live = false
	}
	ok := d.q.cancel(h)
	d.observe("cancel", int64(h), boolInt(ok))
}

func (d *driver) cancelNext() {
	if h := d.nextDue(); h >= 0 {
		d.cancel(h)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// exec decodes and runs the program in input against q.
func exec(q queue, input []byte) []obs {
	d := &driver{q: q, budget: maxSchedules}
	r := &reader{b: input}
	for ops := 0; ops < maxOps && !r.done(); ops++ {
		switch op := r.next() % opCount; op {
		case opSchedule, opScheduleAt:
			d.schedule(r.spec(0), op == opScheduleAt)
		case opScheduleFirst:
			sp := r.spec(0)
			for c, first := sp, true; c != nil; c, first = c.child, !first {
				c.first = first
			}
			d.schedule(sp, false)
		case opCancel:
			k := int(r.next())
			if len(d.hs) > 0 {
				d.cancel(k % len(d.hs))
			}
		case opCancelNext:
			d.cancelNext()
		case opRun:
			mode := r.next() % hModes
			now := q.now()
			h := now
			next := d.nextDue()
			switch {
			case mode == hDelay || next < 0:
				h = d.resolve(r.next()%dKinds, r.next(), now)
			case mode == hAt:
				h = d.hs[next].at
			case mode == hBelow:
				h = d.hs[next].at - 1
			case mode == hAbove:
				h = d.hs[next].at + 1
			}
			d.observe("run", int64(h), 0)
			q.run(h)
		case opRunAll:
			q.runAll()
		case opReset:
			q.reset()
			d.epoch++
			d.seq = 0
			for h := range d.hs {
				d.hs[h].live = false
				d.observe("stale", boolInt(q.valid(h)), boolInt(q.cancel(h)))
			}
		case opValid:
			k := int(r.next())
			if len(d.hs) > 0 {
				d.observe("valid", int64(k%len(d.hs)), boolInt(q.valid(k%len(d.hs))))
			}
		}
		d.state()
	}
	return d.trace
}

// Seed-corpus assembly helpers.

func opSched(kind, arg, act byte, child ...byte) []byte {
	return append([]byte{opSchedule, kind, arg, act}, child...)
}

func opFirst(kind, arg, act byte, child ...byte) []byte {
	return append([]byte{opScheduleFirst, kind, arg, act}, child...)
}

func program(ops ...[]byte) []byte { return slices.Concat(ops...) }

// engineOrderSeeds are the edges a radix queue gets wrong easily.
var engineOrderSeeds = map[string][]byte{
	// RunAll executes the event at 10 µs and then drains a cancelled
	// one at 1 ms. A queue that does not rebase to the clock once it is
	// empty still files times against 1 ms, and runs the event tied at
	// 1 ms before the one at 210 µs.
	"rebase-after-cancelled-drain": program(
		opSched(dMicros, 10, 0),
		opSched(dMillis, 1, 0),
		[]byte{opCancel, 1},
		[]byte{opRunAll},
		opSched(dMicros, 200, 0),
		opSched(dTie, 1, 0),
		[]byte{opRunAll},
	),
	// The event at 100 µs stops the run, leaving its tie due at that
	// instant. The next Run's horizon is 99 µs: the tie must stay
	// queued even though it is already sitting in bucket 0. Then a Run
	// stops 1 µs short of the event at 5 ms, and an event scheduled at
	// the clock must still run first: a refill that skipped the horizon
	// check would already have filed times against 5 ms.
	"run-below-bucket0-after-stop": program(
		opSched(dMicros, 100, actStop),
		opSched(dTie, 0, 0),
		opSched(dMillis, 5, 0),
		[]byte{opRun, hAbove},
		[]byte{opRun, hBelow},
		[]byte{opRun, hAt},
		[]byte{opRun, hBelow},
		opSched(dZero, 0, 0),
		[]byte{opRunAll},
	),
	// A storm of events at one instant, some scheduled from handlers
	// running at that instant, with a cancellation in the middle: they
	// must run in scheduling order.
	"tie-storm": program(
		opSched(dMicros, 50, actChild, dZero, 0, actChild, dZero, 0, 0),
		opSched(dTie, 0, 0),
		opSched(dTie, 0, actChild, dZero, 0, 0),
		opSched(dTie, 0, 0),
		opSched(dTie, 0, actCancelNext),
		opSched(dTie, 0, 0),
		opSched(dTie, 0, actChild, dOne, 0, 0),
		opSched(dTie, 0, 0),
		[]byte{opCancel, 3},
		opSched(dTie, 0, 0),
		opSched(dTie, 0, 0),
		[]byte{opRunAll},
		[]byte{opReset},
		opSched(dCarry, 7, 0),
		[]byte{opRunAll},
	),
	// The same instant holds ordinary and first-class events scheduled
	// in mixed order: every first-class one runs first, in scheduling
	// order. A first-class handler schedules an ordinary event at its
	// own instant, which runs behind the ordinary ones already there,
	// and that ordinary event schedules a first-class one 1 µs on. A
	// Stop in the middle of the first class leaves the ordinary events
	// of the instant queued behind it for the next Run, and a Run just
	// below the instant must leave both classes alone.
	"tie-storm-first-class": program(
		opSched(dMicros, 50, 0),
		opFirst(dTie, 0, actChild, dZero, 0, actChild, dZero, 0, 0),
		opSched(dTie, 0, 0),
		opFirst(dTie, 0, actStop),
		opFirst(dTie, 0, 0),
		[]byte{opRun, hBelow},
		[]byte{opRun, hAt},
		[]byte{opRun, hAt},
		opFirst(dMicros, 3, 0),
		opSched(dTie, 9, 0),
		[]byte{opCancelNext},
		[]byte{opRunAll},
	),
}

// FuzzEngineOrder runs a program of schedules (ordinary and first-class),
// cancellations, runs, and resets against the Engine and against a
// reference that sorts its pending entries by (time, class, sequence),
// and requires the same trace: every executed event's (at, seq), every
// Cancel and Valid result, and Now, Pending, and Executed after each
// operation.
func FuzzEngineOrder(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(engineOrderSeeds)) {
		f.Add(engineOrderSeeds[name])
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		got := exec(&engineQueue{e: NewEngine()}, input)
		want := exec(&refQueue{}, input)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at observation %d: engine %v, reference %v\nengine tail %v",
					i, got[i], want[i], got[max(0, i-8):i+1])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine recorded %d observations, reference %d", len(got), len(want))
		}
	})
}
