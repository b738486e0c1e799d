// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in microseconds and a
// priority queue of scheduled events. Events scheduled for the same instant
// fire in the order they were scheduled (FIFO tie-break on a monotonically
// increasing sequence number), which makes every run with the same seed and
// the same schedule fully reproducible.
//
// The queue is an inlined 4-ary min-heap over pooled event structs: popped
// and cancelled events return to a kernel-local free list, so steady-state
// scheduling performs no heap allocation (see ScheduleArgAt for the
// zero-alloc hot path used by the radio layer). A generation counter on each
// event keeps stale Timer handles from cancelling a recycled event.
//
// All protocol logic in this repository — radio transmissions, routing
// timers, traffic generation, gateway movement rounds — is driven by this
// kernel. Nothing in the simulator reads wall-clock time.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Time is a virtual time instant in microseconds since simulation start.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration = Time

// Common durations, for readability at call sites.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// event is a single scheduled callback. Exactly one of fn/argFn is set.
// Events are pooled: after firing or cancellation they return to the
// kernel's free list with gen incremented, which invalidates outstanding
// Timer handles to the old incarnation.
type event struct {
	at    Time
	seq   uint64 // schedule order; breaks ties deterministically
	fn    func()
	argFn func(any)
	arg   any
	gen   uint32
	index int32 // heap index, -1 when popped/cancelled
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is an inert, already-expired timer.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired yet. It reports whether the
// timer was still pending. Stopping an already-fired, already-stopped or
// zero timer is a safe no-op, even after the underlying event struct has
// been recycled for an unrelated schedule.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.index < 0 {
		return false
	}
	ev := t.ev
	t.k.heapRemove(int(ev.index))
	t.k.putEvent(ev)
	return true
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Kernel is a discrete-event scheduler with a deterministic random source.
//
// A Kernel is not safe for concurrent use; the entire simulation runs on the
// caller's goroutine. This is deliberate: determinism and reproducibility
// matter more here than multicore speedup, and individual experiment runs
// are independently parallelizable at a higher level (internal/runner fans
// out whole runs across a worker pool).
type Kernel struct {
	now     Time
	queue   []*event // 4-ary min-heap ordered by (at, seq)
	free    []*event // recycled event structs
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// interrupt, when non-nil, is an externally owned cancellation flag
	// polled between event batches (every interruptStride events) by
	// Run/RunAll. It is the only concurrency-safe way to stop a running
	// kernel from another goroutine: Stop flips an unsynchronized field and
	// may only be called from inside an event callback.
	interrupt *atomic.Bool

	// progress, when non-nil, receives a (sim-time, events-fired) watermark
	// at the same stride checkpoints the interrupt flag is polled at, plus
	// once when a run loop exits. Published with atomic stores so another
	// goroutine can watch a live run.
	progress *Progress
}

// interruptStride is how many events run between cancellation-flag polls.
// One poll per batch keeps the cost of an armed-but-quiet interrupt flag
// negligible while bounding cancellation latency to one event batch.
const interruptStride = 4096

// NewKernel returns a kernel with its clock at zero and a random source
// seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events currently scheduled.
func (k *Kernel) Pending() int { return len(k.queue) }

// heap ordering: earliest time first, schedule order breaking ties.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The queue is a 4-ary heap: children of node i live at 4i+1..4i+4. The
// wider fan-out halves tree depth versus a binary heap, trading a few extra
// comparisons per level for far fewer cache-missing pointer hops — a net win
// at the event volumes radio deliveries generate.

func (k *Kernel) siftUp(i int) {
	q := k.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = ev
	ev.index = int32(i)
}

func (k *Kernel) siftDown(i int) {
	q := k.queue
	n := len(q)
	ev := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		best := c
		for j := c + 1; j < end; j++ {
			if less(q[j], q[best]) {
				best = j
			}
		}
		if !less(q[best], ev) {
			break
		}
		q[i] = q[best]
		q[i].index = int32(i)
		i = best
	}
	q[i] = ev
	ev.index = int32(i)
}

func (k *Kernel) heapPush(ev *event) {
	k.queue = append(k.queue, ev)
	ev.index = int32(len(k.queue) - 1)
	k.siftUp(int(ev.index))
}

func (k *Kernel) heapPop() *event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	top.index = -1
	if n > 0 {
		k.queue[0] = last
		last.index = 0
		k.siftDown(0)
	}
	return top
}

// heapRemove unlinks the event at heap position i (Timer cancellation).
func (k *Kernel) heapRemove(i int) {
	q := k.queue
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.queue = q[:n]
	ev.index = -1
	if i < n {
		k.queue[i] = last
		last.index = int32(i)
		k.siftDown(i)
		if int(last.index) == i {
			k.siftUp(i)
		}
	}
}

func (k *Kernel) getEvent() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{index: -1}
}

// putEvent recycles a no-longer-queued event. The generation bump is what
// expires outstanding Timer handles.
func (k *Kernel) putEvent(ev *event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.gen++
	k.free = append(k.free, ev)
}

// schedule enqueues a blank pooled event at the given instant.
func (k *Kernel) schedule(at Time) *event {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	ev := k.getEvent()
	ev.at = at
	ev.seq = k.seq
	k.seq++
	k.heapPush(ev)
	return ev
}

// ScheduleAt schedules fn to run at the absolute virtual time at. Scheduling
// in the past panics: it would silently corrupt causality.
func (k *Kernel) ScheduleAt(at Time, fn func()) *Timer {
	ev := k.schedule(at)
	ev.fn = fn
	return &Timer{k: k, ev: ev, gen: ev.gen}
}

// ScheduleArgAt schedules fn(arg) to run at the absolute virtual time at.
// This is the allocation-free fast path for high-volume events (one per
// radio delivery): with fn stored once by the caller and arg a pointer,
// steady-state scheduling allocates nothing — no Timer handle, no closure,
// and the event struct itself comes from the kernel's free list.
func (k *Kernel) ScheduleArgAt(at Time, fn func(any), arg any) {
	ev := k.schedule(at)
	ev.argFn = fn
	ev.arg = arg
}

// After schedules fn to run d microseconds from now.
func (k *Kernel) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return k.ScheduleAt(k.now+d, fn)
}

// Every schedules fn to run every interval, starting after the first
// interval, until the returned Repeater is stopped or the run ends.
func (k *Kernel) Every(interval Duration, fn func()) *Repeater {
	if interval <= 0 {
		panic("sim: non-positive repeat interval")
	}
	r := &Repeater{k: k, interval: interval, fn: fn}
	r.arm()
	return r
}

// Repeater re-schedules a callback at a fixed interval.
type Repeater struct {
	k        *Kernel
	interval Duration
	fn       func()
	timer    *Timer
	stopped  bool
}

func (r *Repeater) arm() {
	r.timer = r.k.After(r.interval, func() {
		if r.stopped {
			return
		}
		r.fn()
		if !r.stopped {
			r.arm()
		}
	})
}

// Stop cancels future firings.
func (r *Repeater) Stop() {
	r.stopped = true
	if r.timer != nil {
		r.timer.Stop()
	}
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// SetInterrupt installs (or, with nil, removes) a cancellation flag. The
// run loops poll it at entry and then every interruptStride executed events;
// when it reads true they stop exactly as if Stop had been called. The flag
// may be set from any goroutine (typically a context.AfterFunc), which is
// what threads context cancellation into an otherwise single-goroutine
// simulation. A nil or never-set flag leaves the hot loop's behaviour — and
// its allocation profile — unchanged.
func (k *Kernel) SetInterrupt(flag *atomic.Bool) { k.interrupt = flag }

// SetProgress installs (or, with nil, removes) a live progress watermark.
// The run loops publish to it every interruptStride executed events and once
// more when they return, so a poller sees sim-time and event counts at most
// one event batch stale. Like SetInterrupt, a nil probe leaves the hot
// loop's behaviour — and its allocation profile — unchanged.
func (k *Kernel) SetProgress(p *Progress) { k.progress = p }

// Stopped reports whether Stop has been called since the last Run/RunAll
// began. The radio medium checks it between batched deliveries so a Stop
// issued mid-batch (a reception killing the node that stops the run) halts
// delivery exactly where the per-event schedule would have.
func (k *Kernel) Stopped() bool { return k.stopped }

// Step executes the single next event, if any, and reports whether one ran.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := k.heapPop()
	k.now = ev.at
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	k.putEvent(ev)
	switch {
	case fn != nil:
		k.fired++
		fn()
	case argFn != nil:
		k.fired++
		argFn(arg)
	}
	return true
}

// Run executes events until the queue drains, Stop is called, or the next
// event would fire after until. The clock is left at the time of the last
// executed event (or advanced to until when the horizon is hit with events
// still pending). Run returns the number of events executed.
func (k *Kernel) Run(until Time) uint64 {
	k.stopped = false
	start := k.fired
	check := 0
	for !k.stopped {
		if k.interrupt != nil || k.progress != nil {
			if check == 0 {
				k.progress.Publish(k.now, k.fired)
				if k.interrupt != nil && k.interrupt.Load() {
					k.stopped = true
					break
				}
				check = interruptStride
			}
			check--
		}
		if len(k.queue) == 0 {
			break
		}
		if k.queue[0].at > until {
			k.now = until
			break
		}
		k.Step()
	}
	k.progress.Publish(k.now, k.fired)
	return k.fired - start
}

// RunAll executes events until the queue drains or Stop is called.
func (k *Kernel) RunAll() uint64 {
	k.stopped = false
	start := k.fired
	check := 0
	for !k.stopped {
		if k.interrupt != nil || k.progress != nil {
			if check == 0 {
				k.progress.Publish(k.now, k.fired)
				if k.interrupt != nil && k.interrupt.Load() {
					k.stopped = true
					break
				}
				check = interruptStride
			}
			check--
		}
		if !k.Step() {
			break
		}
	}
	k.progress.Publish(k.now, k.fired)
	return k.fired - start
}

// EventPool carries recycled kernel storage — pooled event structs and the
// heap's backing array — between sequential runs (the run arena). A zero
// EventPool is valid and empty. Pools are not safe for concurrent use:
// each run adopts the pool exclusively and harvests it back when done.
type EventPool struct {
	free  []*event
	queue []*event // reused for heap capacity only; always length 0
}

// AdoptEventPool seeds k's free list and heap capacity from p, emptying p.
// Call once, on a freshly created kernel with nothing scheduled.
func (k *Kernel) AdoptEventPool(p *EventPool) {
	if p.free != nil {
		k.free = p.free
		p.free = nil
	}
	if p.queue != nil {
		k.queue = p.queue[:0]
		p.queue = nil
	}
}

// HarvestEventPool moves k's event storage into p and detaches it from k.
// Events still scheduled are cancelled and recycled: their callbacks are
// cleared and their generation bumped, so Timer and Repeater handles held
// by the finished run's stacks become inert no-ops — exactly as if every
// outstanding timer had been stopped. The kernel itself remains usable
// (it allocates fresh storage on the next schedule), but the run it drove
// is over.
func (k *Kernel) HarvestEventPool(p *EventPool) {
	for i, ev := range k.queue {
		ev.index = -1
		k.putEvent(ev) // clears fn/argFn/arg and bumps gen
		k.queue[i] = nil
	}
	p.free = append(p.free, k.free...)
	p.queue = k.queue[:0]
	k.free = nil
	k.queue = nil
}
