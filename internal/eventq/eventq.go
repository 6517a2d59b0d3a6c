// Package eventq implements the event queue driving the discrete-event
// simulator: a hierarchical timing wheel of timestamped callbacks with
// a stable tie-break, so two events scheduled for the same instant
// always fire in scheduling order. Determinism of the whole simulation
// rests on this property.
//
// The wheel quantizes virtual time into ticks of 2^tickShift
// nanoseconds and keeps wheelLevels levels of wheelSize buckets each.
// Level 0 buckets hold one tick; each higher level's buckets hold
// wheelSize times the span below, so the wheel covers
// wheelSize^wheelLevels ticks (~17 s at the current geometry) ahead of
// the cursor. Events beyond that horizon wait in a spill min-heap and
// are swept into the wheel when the cursor reaches their epoch.
// Scheduling is O(1) bucket placement; Pop advances a cursor using
// per-level occupancy bitmaps and cascades higher-level buckets down,
// for amortized O(1) per event regardless of queue depth — the reason
// this replaced the binary heap (kept in heap_test.go as the
// differential-test oracle).
//
// Events sharing the cursor's tick live in a run slice kept sorted by
// (At, seq), which restores the sub-tick ordering the bucket quantization
// discards; events scheduled in the past go to a sorted overdue slice
// that drains before everything else. Together the zones preserve the
// heap's exact pop order: globally ascending (At, seq).
//
// The queue owns a free list of Event structs so steady-state
// scheduling allocates nothing: popped and canceled events are returned
// to the pool with Release and handed out again by the next Schedule.
// Callers therefore never hold a bare *Event across a firing — Schedule
// returns a Handle, a value type carrying the scheduling sequence
// number, so a stale Handle (its event already fired, was canceled, or
// was recycled into a different event) cancels nothing.
package eventq

import (
	"math"
	"math/bits"
	"time"
)

// Wheel geometry. One tick is 2^tickShift ns (~1 µs — finer than the
// sub-ms transmission times the simulator schedules at, coarse enough
// that a fully-loaded link advances the cursor every few events).
const (
	tickShift   = 10
	wheelBits   = 6
	wheelSize   = 1 << wheelBits
	wheelMask   = wheelSize - 1
	wheelLevels = 4
	// epochShift is the total tick-space covered by the wheel; events
	// whose tick differs from the cursor above this many bits spill.
	epochShift = wheelLevels * wheelBits
)

// Event is a callback scheduled to run at a virtual time. Events are
// owned by their Queue: after Pop the caller runs the event and gives
// the struct back with Release, which recycles it for a future
// Schedule. Hold a Handle, not an *Event.
type Event struct {
	At time.Duration // virtual time since simulation epoch

	fn    func()
	argFn func(any)
	arg   any

	// next/prev link the event into its wheel bucket (intrusive
	// doubly-linked list: zero-alloc insertion, O(1) cancel removal).
	next, prev *Event

	seq      uint64 // insertion order, breaks ties deterministically
	where    int32  // zone the event currently occupies (see below)
	pos      int32  // index while in the spill heap
	canceled bool
}

// Zone codes for Event.where. Zero is the never-scheduled zero value;
// anything >= zoneRun means "still queued". Wheel buckets encode their
// level and index so Cancel can unlink in O(1).
const (
	idxFreed  = -2 // returned to the free list
	idxPopped = -1 // removed by Pop, possibly running
	idxLimbo  = 0  // freshly allocated, not yet scheduled
	zoneRun   = 1  // run slice: events at the cursor's tick
	zoneOver  = 2  // overdue slice: scheduled in the past
	zoneSpill = 3  // spill slice: beyond the wheel horizon
	zoneWheel = 8  // + lvl*wheelSize + bucket
)

func wheelZone(lvl, b int) int32 { return zoneWheel + int32(lvl)<<wheelBits + int32(b) }
func zoneLevel(where int32) int  { return int(where-zoneWheel) >> wheelBits }
func zoneBucket(where int32) int { return int(where-zoneWheel) & wheelMask }

// Call invokes the event's callback (either form; argFn wins).
func (e *Event) Call() {
	if e.argFn != nil {
		e.argFn(e.arg)
		return
	}
	if e.fn != nil {
		e.fn()
	}
}

// less is the global pop order: ascending time, insertion order on ties.
func less(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// tickOf quantizes a virtual time to its wheel tick. The arithmetic
// shift rounds toward negative infinity, so negative times sort before
// tick zero instead of wrapping.
func tickOf(at time.Duration) int64 { return int64(at) >> tickShift }

// Handle identifies one scheduled event for cancellation. The zero
// Handle is valid and refers to nothing. Because the Handle carries the
// event's scheduling sequence number, it stays safe after the event
// fires and its struct is recycled: Cancel and Pending treat a recycled
// event as gone.
type Handle struct {
	e   *Event
	seq uint64
}

// Pending reports whether the handled event is still queued (not yet
// fired, canceled, or recycled).
func (h Handle) Pending() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.where >= zoneRun && !h.e.canceled
}

// Canceled reports whether the handled event was removed before firing.
// Once the event struct has been recycled into a new event the answer
// degrades to false, matching Pending.
func (h Handle) Canceled() bool {
	return h.e != nil && h.e.seq == h.seq && h.e.canceled
}

// Queue is a hierarchical timing wheel of events popped in (At,
// insertion order). The zero value is an empty queue ready to use.
type Queue struct {
	n      int // live (pending, uncanceled) events
	seq    uint64
	free   []*Event
	noPool bool

	curTick int64
	// run holds the cursor tick's events sorted by (At, seq); entries
	// before runPos have been popped. The slice is reused across ticks.
	run    []*Event
	runPos int
	// overdue is sorted descending by (At, seq) so the next event pops
	// from the end without shifting; it only ever holds events scheduled
	// in the past, which the simulator forbids, so it stays tiny.
	overdue []*Event
	// spill is a binary min-heap ordered by (At, seq), indexed through
	// Event.pos. Far-future events (tile boundaries, long timers, the
	// next packet of a sparse source) arrive from many producers in no
	// particular order, so a sorted slice would memmove per insert; the
	// heap keeps both insert and epoch-refill at O(log n).
	spill []*Event

	wheel [wheelLevels][wheelSize]*Event // bucket list heads
	occ   [wheelLevels]uint64            // per-level occupancy bitmaps
}

// SetPooling toggles free-list reuse (on by default). Disabling it
// makes every Schedule allocate a fresh Event — behaviorally identical,
// just slower — which is how the pooling property tests get their
// reference run.
func (q *Queue) SetPooling(on bool) { q.noPool = !on }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

func (q *Queue) alloc() *Event {
	if n := len(q.free); n > 0 && !q.noPool {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return e
	}
	return &Event{}
}

func (q *Queue) push(e *Event, at time.Duration) Handle {
	q.seq++
	return q.pushSeq(e, at, q.seq-1)
}

func (q *Queue) pushSeq(e *Event, at time.Duration, seq uint64) Handle {
	e.At = at
	e.seq = seq
	e.canceled = false
	q.place(e)
	q.n++
	return Handle{e: e, seq: seq}
}

// Schedule adds fn to run at virtual time at and returns a handle,
// which can later be passed to Cancel. Scheduling in the past is allowed
// (the simulator treats it as "run as soon as possible"); the caller is
// responsible for monotonic clock discipline.
func (q *Queue) Schedule(at time.Duration, fn func()) Handle {
	e := q.alloc()
	e.fn, e.argFn, e.arg = fn, nil, nil
	return q.push(e, at)
}

// ScheduleArg adds fn(arg) to run at virtual time at. Because fn can be
// a long-lived callback and arg a pooled object, this form schedules
// without allocating a closure — the simulator's packet hot path runs
// entirely on it.
func (q *Queue) ScheduleArg(at time.Duration, fn func(any), arg any) Handle {
	e := q.alloc()
	e.fn, e.argFn, e.arg = nil, fn, arg
	return q.push(e, at)
}

// Reserve sets aside the next n sequence numbers and returns the first.
// Each may later be passed once to ScheduleArgSeq. An event scheduled
// under a reserved number pops exactly where it would have popped had it
// been scheduled at the moment of the reservation, so a producer can
// queue a long, time-ordered run of events one at a time — each as its
// predecessor fires — and keep the pop order of scheduling them all up
// front. Events scheduled after the reservation take later numbers and
// lose same-instant ties to every reserved event.
func (q *Queue) Reserve(n int) uint64 {
	if n < 0 {
		panic("eventq: negative reservation")
	}
	base := q.seq
	q.seq += uint64(n)
	return base
}

// ScheduleArgSeq is ScheduleArg under a sequence number previously
// returned by (or within a block of) Reserve. Each reserved number must
// be used at most once: two live events sharing one would make the
// tie-break, and the ABA safety of their Handles, ambiguous.
func (q *Queue) ScheduleArgSeq(seq uint64, at time.Duration, fn func(any), arg any) Handle {
	if seq >= q.seq {
		panic("eventq: scheduling under an unreserved sequence number")
	}
	e := q.alloc()
	e.fn, e.argFn, e.arg = nil, fn, arg
	return q.pushSeq(e, at, seq)
}

// place files an event into the zone its tick calls for. An event goes
// to the shallowest wheel level whose bucket span still separates it
// from the cursor — equivalently, the first level where its tick and
// the cursor agree on all higher-order bits.
func (q *Queue) place(e *Event) {
	t, c := tickOf(e.At), q.curTick
	switch {
	case t == c:
		q.insertRun(e)
	case t < c:
		q.insertSorted(&q.overdue, e, zoneOver)
	case t>>wheelBits == c>>wheelBits:
		q.bucketPush(0, int(t&wheelMask), e)
	case t>>(2*wheelBits) == c>>(2*wheelBits):
		q.bucketPush(1, int(t>>wheelBits&wheelMask), e)
	case t>>(3*wheelBits) == c>>(3*wheelBits):
		q.bucketPush(2, int(t>>(2*wheelBits)&wheelMask), e)
	case t>>epochShift == c>>epochShift:
		q.bucketPush(3, int(t>>(3*wheelBits)&wheelMask), e)
	default:
		q.spillPush(e)
	}
}

// insertRun binary-inserts into the pending tail of the run slice, so
// same-tick events scheduled mid-drain still fire in (At, seq) order.
func (q *Queue) insertRun(e *Event) {
	if q.runPos == len(q.run) {
		q.run = q.run[:0]
		q.runPos = 0
	}
	e.where = zoneRun
	lo, hi := q.runPos, len(q.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(e, q.run[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.run = append(q.run, nil)
	copy(q.run[lo+1:], q.run[lo:])
	q.run[lo] = e
}

// insertSorted binary-inserts into the descending (At, seq) overdue
// slice, whose earliest event sits at the end.
func (q *Queue) insertSorted(sl *[]*Event, e *Event, zone int32) {
	e.where = zone
	s := *sl
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(e, s[mid]) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, nil)
	copy(s[lo+1:], s[lo:])
	s[lo] = e
	*sl = s
}

// spillPush adds a far-future event to the spill min-heap.
func (q *Queue) spillPush(e *Event) {
	e.where = zoneSpill
	e.pos = int32(len(q.spill))
	q.spill = append(q.spill, e)
	q.spillUp(int(e.pos))
}

// spillPop removes and returns the spill heap's minimum.
func (q *Queue) spillPop() *Event {
	e := q.spill[0]
	q.spillRemove(0)
	return e
}

// spillRemove deletes the spill heap element at index i.
func (q *Queue) spillRemove(i int) {
	n := len(q.spill) - 1
	if i != n {
		q.spillSwap(i, n)
	}
	q.spill[n] = nil
	q.spill = q.spill[:n]
	if i < n {
		q.spillDown(i)
		q.spillUp(i)
	}
}

func (q *Queue) spillSwap(i, j int) {
	q.spill[i], q.spill[j] = q.spill[j], q.spill[i]
	q.spill[i].pos = int32(i)
	q.spill[j].pos = int32(j)
}

func (q *Queue) spillUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(q.spill[i], q.spill[parent]) {
			return
		}
		q.spillSwap(i, parent)
		i = parent
	}
}

func (q *Queue) spillDown(i int) {
	n := len(q.spill)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && less(q.spill[right], q.spill[left]) {
			min = right
		}
		if !less(q.spill[min], q.spill[i]) {
			return
		}
		q.spillSwap(i, min)
		i = min
	}
}

func (q *Queue) bucketPush(lvl, b int, e *Event) {
	e.where = wheelZone(lvl, b)
	head := q.wheel[lvl][b]
	e.prev = nil
	e.next = head
	if head != nil {
		head.prev = e
	}
	q.wheel[lvl][b] = e
	q.occ[lvl] |= 1 << uint(b)
}

func (q *Queue) bucketRemove(e *Event) {
	lvl, b := zoneLevel(e.where), zoneBucket(e.where)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		q.wheel[lvl][b] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	if q.wheel[lvl][b] == nil {
		q.occ[lvl] &^= 1 << uint(b)
	}
}

// reap releases an event whose lazy cancellation has reached a
// consumable edge of its slice.
func (q *Queue) reap(e *Event) {
	e.where = idxPopped
	q.Release(e)
}

// maxTick is the advance limit meaning "unbounded" (Pop, Peek).
const maxTick = int64(math.MaxInt64)

// front returns the earliest live event without removing it, advancing
// the cursor (and cascading buckets) as needed, or nil when empty. The
// cursor never advances past limit (a tick): with a finite limit, front
// may leave far-future events untouched and return nil — or an event
// beyond the caller's deadline, which the caller filters by At.
//
// Zone order needs no cross-checks beyond overdue-vs-run: every wheel
// and spill event has tick > curTick, every run event has tick ==
// curTick, and tick is monotone in At, so run strictly precedes the
// rest; overdue (tick < curTick) can only outrank run when its At does.
func (q *Queue) front(limit int64) *Event {
	if q.n == 0 {
		return nil
	}
	for {
		for q.runPos < len(q.run) && q.run[q.runPos].canceled {
			q.reap(q.run[q.runPos])
			q.runPos++
		}
		for n := len(q.overdue); n > 0 && q.overdue[n-1].canceled; n = len(q.overdue) {
			q.reap(q.overdue[n-1])
			q.overdue = q.overdue[:n-1]
		}
		var rn, od *Event
		if q.runPos < len(q.run) {
			rn = q.run[q.runPos]
		}
		if n := len(q.overdue); n > 0 {
			od = q.overdue[n-1]
		}
		switch {
		case od != nil && (rn == nil || less(od, rn)):
			return od
		case rn != nil:
			return rn
		}
		if !q.advance(limit) {
			return nil
		}
	}
}

// advance moves the cursor to the next occupied tick: scan level 0's
// occupancy bitmap for a bucket ahead of the cursor, else cascade the
// next occupied higher-level bucket down (re-placing its events, which
// lands the bucket-start ones in run), else jump to the spill slice's
// earliest epoch and pull that whole epoch into the wheel. Reports
// whether any live event became available.
//
// The cursor stops at limit when the next occupied tick lies beyond it.
// This is what keeps PopUntil-driven simulations fast: the cursor tracks
// the caller's clock instead of leaping to a far-future timer, so events
// scheduled "behind" such a leap never pile into the overdue slice.
// Stopping at limit is safe exactly because the scans just proved no
// event occupies (curTick, limit] — except that the cursor must not
// enter the epoch of a still-spilled event (wheel placements ahead of
// the cursor must outrank every spill entry), so the spill stop clamps
// to just before the spill tail's epoch.
func (q *Queue) advance(limit int64) bool {
	q.run = q.run[:0]
	q.runPos = 0
	for {
		if q.runPos < len(q.run) {
			return true
		}
		// Level 0: jump straight to the next occupied tick in window.
		if idx := int(q.curTick & wheelMask); idx < wheelMask {
			if m := q.occ[0] &^ (1<<uint(idx+1) - 1); m != 0 {
				b := bits.TrailingZeros64(m)
				tk := q.curTick&^wheelMask | int64(b)
				if tk > limit {
					q.stopAt(limit)
					return false
				}
				q.curTick = tk
				q.loadRun(b)
				continue
			}
		}
		// Higher levels: cascade the next occupied bucket down one
		// level, cursor set to the bucket's first tick.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			shift := uint(lvl * wheelBits)
			idx := int(q.curTick >> shift & wheelMask)
			if idx == wheelMask {
				continue
			}
			m := q.occ[lvl] &^ (1<<uint(idx+1) - 1)
			if m == 0 {
				continue
			}
			b := bits.TrailingZeros64(m)
			span := int64(1) << (shift + wheelBits)
			start := q.curTick&^(span-1) | int64(b)<<shift
			if start > limit {
				q.stopAt(limit)
				return false
			}
			q.curTick = start
			q.cascade(lvl, b)
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Spill: the wheel is empty out to its horizon. Jump to the
		// earliest far-future event and refill its top-level epoch.
		if len(q.spill) == 0 {
			q.stopAt(limit)
			return false
		}
		earliest := tickOf(q.spill[0].At)
		if earliest > limit {
			// The wheel is empty, so the cursor may cross epochs —
			// but not into the earliest spill's epoch, which must stay
			// strictly ahead of the cursor's wheel range.
			stop := limit
			if es := earliest >> epochShift << epochShift; es <= limit {
				stop = es - 1
			}
			q.stopAt(stop)
			return false
		}
		q.curTick = earliest
		epoch := q.curTick >> epochShift
		for len(q.spill) > 0 && tickOf(q.spill[0].At)>>epochShift == epoch {
			q.place(q.spillPop())
		}
	}
}

// stopAt parks the cursor at tick t after a scan proved no live event
// occupies (curTick, t]. Unbounded advances (t == maxTick) and backward
// moves are no-ops.
func (q *Queue) stopAt(t int64) {
	if t != maxTick && t > q.curTick {
		q.curTick = t
	}
}

// loadRun empties level-0 bucket b into the run slice and sorts it.
// Bucket lists are LIFO, so the collected slice is reversed back to
// insertion order first, leaving the insertion sort near-linear (it
// only has to fix At-order inversions from cascading).
func (q *Queue) loadRun(b int) {
	for e := q.wheel[0][b]; e != nil; {
		next := e.next
		e.next, e.prev = nil, nil
		e.where = zoneRun
		q.run = append(q.run, e)
		e = next
	}
	q.wheel[0][b] = nil
	q.occ[0] &^= 1 << uint(b)
	for i, j := 0, len(q.run)-1; i < j; i, j = i+1, j-1 {
		q.run[i], q.run[j] = q.run[j], q.run[i]
	}
	for i := 1; i < len(q.run); i++ {
		e := q.run[i]
		j := i - 1
		for j >= 0 && less(e, q.run[j]) {
			q.run[j+1] = q.run[j]
			j--
		}
		q.run[j+1] = e
	}
}

// cascade re-places every event of bucket (lvl, b) now that the cursor
// has entered the bucket's span. Events land one or more levels lower —
// or in run, when they sit on the bucket's first tick.
func (q *Queue) cascade(lvl, b int) {
	e := q.wheel[lvl][b]
	q.wheel[lvl][b] = nil
	q.occ[lvl] &^= 1 << uint(b)
	for e != nil {
		next := e.next
		e.next, e.prev = nil, nil
		q.place(e)
		e = next
	}
}

// Cancel removes a pending event. Canceling an already-fired,
// already-canceled, or recycled handle is a no-op, so callers can
// cancel timers unconditionally. Wheel-bucket events unlink (and
// recycle) in O(1) and spill events heap-delete in O(log n); events in
// the run and overdue slices are marked and reaped when the drain
// reaches them, which keeps Cancel O(1) there too.
func (q *Queue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.seq != h.seq || e.where < zoneRun || e.canceled {
		return
	}
	q.n--
	e.canceled = true
	switch {
	case e.where >= zoneWheel:
		q.bucketRemove(e)
		e.where = idxPopped
		q.Release(e)
	case e.where == zoneSpill:
		q.spillRemove(int(e.pos))
		e.where = idxPopped
		q.Release(e)
	}
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty. The caller runs it (Call) and then must hand it back with
// Release.
func (q *Queue) Pop() *Event {
	return q.take(q.front(maxTick))
}

// PopUntil removes and returns the earliest event with At <= t, or nil
// when none is due. Unlike Peek-then-Pop, the cursor never advances past
// t's tick: a far-future timer does not drag the cursor forward, so
// events scheduled after a bounded run still land in wheel buckets
// instead of the overdue slice. This is the form clock-sliced drivers
// (sim.RunUntil) should use.
func (q *Queue) PopUntil(t time.Duration) *Event {
	limit := tickOf(t)
	if q.n == 0 {
		q.settle(limit)
		return nil
	}
	e := q.front(limit)
	if e == nil || e.At > t {
		return nil
	}
	return q.take(e)
}

// take finalizes a pop of the event front just returned.
func (q *Queue) take(e *Event) *Event {
	if e == nil {
		return nil
	}
	switch e.where {
	case zoneRun:
		q.runPos++
	case zoneOver:
		q.overdue = q.overdue[:len(q.overdue)-1]
	}
	e.where = idxPopped
	q.n--
	return e
}

// settle advances an empty queue's cursor to limit, reaping any
// lazily-canceled strays first (with n == 0 every slice entry is one).
func (q *Queue) settle(limit int64) {
	if limit <= q.curTick {
		return
	}
	for _, e := range q.run[q.runPos:] {
		q.reap(e)
	}
	q.run = q.run[:0]
	q.runPos = 0
	for _, e := range q.overdue {
		q.reap(e)
	}
	q.overdue = q.overdue[:0]
	q.curTick = limit
}

// Release returns a popped or canceled event to the free list. Events
// still queued, nil events, and double releases are no-ops.
func (q *Queue) Release(e *Event) {
	if e == nil || e.where != idxPopped {
		return
	}
	e.fn, e.argFn, e.arg = nil, nil, nil
	e.where = idxFreed
	if q.noPool {
		return
	}
	q.free = append(q.free, e)
}

// Peek returns the earliest pending event without removing it, or nil.
// Finding it may advance the cursor to that event's tick; drivers that
// slice time should prefer PopUntil, which bounds the advance.
func (q *Queue) Peek() *Event {
	return q.front(maxTick)
}
