package eventq

import (
	"math/rand"
	"testing"
	"time"
)

// queueImpl is the surface the differential test drives; Queue (the
// timing wheel) and heapQueue (the retained min-heap) both satisfy it.
type queueImpl interface {
	Schedule(time.Duration, func()) Handle
	ScheduleArg(time.Duration, func(any), any) Handle
	Cancel(Handle)
	Pop() *Event
	PopUntil(time.Duration) *Event
	Release(*Event)
	Peek() *Event
	Len() int
	SetPooling(bool)
}

// scheduleAt picks an instant for a randomized schedule op, mixing the
// regimes the wheel treats differently: the cursor's own tick, the
// recent past (overdue), nearby level-0 buckets, mid-wheel levels, the
// far future (spill), and exact duplicates of the previous instant for
// tie-break coverage.
func scheduleAt(r *rand.Rand, now, prev time.Duration) time.Duration {
	switch r.Intn(10) {
	case 0: // same instant as an earlier event: seq must break the tie
		if prev >= 0 {
			return prev
		}
		return now
	case 1: // in the past (relative to events already popped)
		return now - time.Duration(r.Int63n(int64(time.Millisecond)+1))
	case 2, 3, 4: // current or adjacent ticks
		return now + time.Duration(r.Int63n(3<<tickShift))
	case 5, 6, 7: // level 0-1 of the wheel
		return now + time.Duration(r.Int63n(int64(wheelSize)<<(tickShift+wheelBits)))
	case 8: // level 2-3
		return now + time.Duration(r.Int63n(1<<(tickShift+3*wheelBits)))
	default: // beyond the horizon: spill
		return now + time.Duration(1)<<(tickShift+epochShift) + time.Duration(r.Int63n(int64(time.Hour)))
	}
}

// TestWheelMatchesHeapDifferential drives the wheel and the heap with
// identical randomized Schedule/Cancel/Pop/Peek scripts across seeds
// and asserts identical observable behavior at every step: lengths,
// peeked and popped (At, payload) pairs — covering same-instant
// tie-breaks — and the outcome of cancels through live, stale, and
// recycled handles.
func TestWheelMatchesHeapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w Queue
		h := newHeapQueue()
		impls := [2]queueImpl{&w, h}

		// Parallel handle logs, one per implementation, including
		// fired and canceled handles so cancels exercise staleness.
		var handles [2][]Handle
		now, prev := time.Duration(0), time.Duration(-1)
		nextPayload := 0

		pop := func() {
			var popped [2]*Event
			for i, q := range impls {
				popped[i] = q.Pop()
			}
			if (popped[0] == nil) != (popped[1] == nil) {
				t.Fatalf("seed %d: wheel popped %v, heap popped %v", seed, popped[0], popped[1])
			}
			if popped[0] == nil {
				return
			}
			if popped[0].At != popped[1].At || popped[0].arg != popped[1].arg {
				t.Fatalf("seed %d: pop mismatch: wheel (%v, %v) heap (%v, %v)",
					seed, popped[0].At, popped[0].arg, popped[1].At, popped[1].arg)
			}
			if popped[0].At > now {
				now = popped[0].At
			}
			for i, q := range impls {
				q.Release(popped[i])
			}
		}

		const ops = 4000
		for op := 0; op < ops; op++ {
			switch k := r.Intn(100); {
			case k < 55: // schedule
				at := scheduleAt(r, now, prev)
				prev = at
				payload := nextPayload
				nextPayload++
				for i, q := range impls {
					handles[i] = append(handles[i], q.ScheduleArg(at, func(any) {}, payload))
				}
			case k < 75: // cancel a random handle — possibly stale
				if len(handles[0]) == 0 {
					continue
				}
				j := r.Intn(len(handles[0]))
				wasPending := handles[0][j].Pending()
				if p1 := handles[1][j].Pending(); wasPending != p1 {
					t.Fatalf("seed %d op %d: Pending mismatch: wheel %v heap %v", seed, op, wasPending, p1)
				}
				for i, q := range impls {
					q.Cancel(handles[i][j])
				}
				// A live cancel must register on both. (A stale cancel's
				// Canceled() may differ: it reports false once the struct
				// is recycled, and the implementations recycle at
				// different times — a timing the contract never fixed.)
				if wasPending {
					for i := range impls {
						if h := handles[i][j]; h.Pending() || !h.Canceled() {
							t.Fatalf("seed %d op %d impl %d: live cancel: Pending=%v Canceled=%v",
								seed, op, i, h.Pending(), h.Canceled())
						}
					}
				}
			case k < 85: // pop a burst
				for i := r.Intn(4); i >= 0; i-- {
					pop()
				}
			case k < 95: // drain a bounded slice, RunUntil-style
				deadline := now + time.Duration(r.Int63n(int64(200*time.Millisecond)))
				for {
					var popped [2]*Event
					for i, q := range impls {
						popped[i] = q.PopUntil(deadline)
					}
					if (popped[0] == nil) != (popped[1] == nil) {
						t.Fatalf("seed %d op %d: PopUntil(%v): wheel %v, heap %v",
							seed, op, deadline, popped[0], popped[1])
					}
					if popped[0] == nil {
						break
					}
					if popped[0].At != popped[1].At || popped[0].arg != popped[1].arg {
						t.Fatalf("seed %d op %d: PopUntil mismatch: wheel (%v, %v) heap (%v, %v)",
							seed, op, popped[0].At, popped[0].arg, popped[1].At, popped[1].arg)
					}
					for i, q := range impls {
						q.Release(popped[i])
					}
				}
				if deadline > now {
					now = deadline
				}
			default: // peek
				pw, ph := impls[0].Peek(), impls[1].Peek()
				if (pw == nil) != (ph == nil) {
					t.Fatalf("seed %d op %d: peek nil mismatch", seed, op)
				}
				if pw != nil && (pw.At != ph.At || pw.arg != ph.arg) {
					t.Fatalf("seed %d op %d: peek mismatch: wheel (%v, %v) heap (%v, %v)",
						seed, op, pw.At, pw.arg, ph.At, ph.arg)
				}
			}
			if w.Len() != h.Len() {
				t.Fatalf("seed %d op %d: Len mismatch: wheel %d heap %d", seed, op, w.Len(), h.Len())
			}
		}

		// Drain both queues completely; every remaining pop must match.
		for w.Len() > 0 || h.Len() > 0 {
			pop()
		}
		pop() // both empty: both must return nil
	}
}

// TestWheelMatchesHeapUnpooled repeats a short differential run with
// pooling off, so recycled-struct aliasing can't mask an ordering bug.
func TestWheelMatchesHeapUnpooled(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var w Queue
	h := newHeapQueue()
	w.SetPooling(false)
	h.SetPooling(false)
	now, prev := time.Duration(0), time.Duration(-1)
	for op := 0; op < 1200; op++ {
		if r.Intn(3) > 0 {
			at := scheduleAt(r, now, prev)
			prev = at
			w.Schedule(at, nil)
			h.Schedule(at, nil)
			continue
		}
		ew, eh := w.Pop(), h.Pop()
		if (ew == nil) != (eh == nil) {
			t.Fatalf("op %d: pop nil mismatch", op)
		}
		if ew == nil {
			continue
		}
		if ew.At != eh.At || ew.seq != eh.seq {
			t.Fatalf("op %d: pop mismatch: wheel (%v, %d) heap (%v, %d)", op, ew.At, ew.seq, eh.At, eh.seq)
		}
		if ew.At > now {
			now = ew.At
		}
		w.Release(ew)
		h.Release(eh)
	}
}

// chainTag is the payload of a reserved-sequence event: element idx of
// chain c.
type chainTag struct{ c, idx int }

// chain is a block of reserved sequence numbers with non-decreasing
// instants, which the wheel schedules one element at a time — each as
// its predecessor pops — while the heap oracle got every element up
// front through plain ScheduleArg.
type chain struct {
	base uint64
	at   []time.Duration
}

// TestReservedSequencesMatchEagerHeap interleaves reserved blocks with
// ordinary Schedule/Cancel/Pop/PopUntil/Peek traffic. The wheel fills
// each block lazily through ScheduleArgSeq; the heap oracle scheduled
// the whole block eagerly when it was reserved. Pops must agree event
// for event, including same-instant ties between blocks and ordinary
// events on both sides of a reservation, and handles of fired block
// events must behave as stale ones: not pending, not canceled, and a
// Cancel through them changes nothing.
func TestReservedSequencesMatchEagerHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		var w Queue
		h := newHeapQueue()
		if seed%4 == 0 {
			w.SetPooling(false)
			h.SetPooling(false)
		}
		var chains []chain
		var handles [2][]Handle // ordinary events, live and stale
		var fired [2][]Handle   // block events that already popped
		unscheduled := 0        // block elements the wheel has yet to schedule
		now, prev := time.Duration(0), time.Duration(-1)
		nextPayload := 0
		nop := func(any) {}

		// check compares one pop from each side and, on the wheel side,
		// schedules the popped block element's successor.
		check := func(op int, ew, eh *Event) bool {
			if (ew == nil) != (eh == nil) {
				t.Fatalf("seed %d op %d: wheel popped %v, heap popped %v", seed, op, ew, eh)
			}
			if ew == nil {
				return false
			}
			if ew.At != eh.At || ew.seq != eh.seq || ew.arg != eh.arg {
				t.Fatalf("seed %d op %d: pop mismatch: wheel (%v, %d, %v) heap (%v, %d, %v)",
					seed, op, ew.At, ew.seq, ew.arg, eh.At, eh.seq, eh.arg)
			}
			if ew.At > now {
				now = ew.At
			}
			if tag, ok := ew.arg.(chainTag); ok {
				fired[0] = append(fired[0], Handle{e: ew, seq: ew.seq})
				fired[1] = append(fired[1], Handle{e: eh, seq: eh.seq})
				if c := chains[tag.c]; tag.idx+1 < len(c.at) {
					w.ScheduleArgSeq(c.base+uint64(tag.idx+1), c.at[tag.idx+1], nop, chainTag{tag.c, tag.idx + 1})
					unscheduled--
				}
			}
			w.Release(ew)
			h.Release(eh)
			return true
		}

		for op := 0; op < 4000; op++ {
			switch k := r.Intn(100); {
			case k < 40: // ordinary schedule, often tied with a block instant
				at := scheduleAt(r, now, prev)
				prev = at
				handles[0] = append(handles[0], w.ScheduleArg(at, nop, nextPayload))
				handles[1] = append(handles[1], h.ScheduleArg(at, nop, nextPayload))
				nextPayload++
			case k < 50: // reserve a block
				n := r.Intn(30)
				c := chain{base: w.Reserve(n)}
				at := now + time.Duration(r.Int63n(int64(time.Millisecond)))
				for i := 0; i < n; i++ {
					switch r.Intn(6) {
					case 0: // same nanosecond as its predecessor
					case 1: // beyond the wheel horizon: spill
						at += time.Duration(1) << (tickShift + epochShift)
					case 2: // same tick
						at += time.Duration(r.Int63n(1 << tickShift))
					case 3: // tied with an ordinary event scheduled earlier
						if prev > at {
							at = prev
						}
					default:
						at += time.Duration(r.Int63n(int64(time.Millisecond)))
					}
					c.at = append(c.at, at)
					hd := h.ScheduleArg(at, nop, chainTag{len(chains), i})
					if hd.seq != c.base+uint64(i) {
						t.Fatalf("seed %d op %d: oracle seq %d, reserved %d", seed, op, hd.seq, c.base+uint64(i))
					}
				}
				if n > 0 {
					prev = c.at[r.Intn(n)]
					w.ScheduleArgSeq(c.base, c.at[0], nop, chainTag{len(chains), 0})
					unscheduled += n - 1
				}
				chains = append(chains, c)
			case k < 65: // cancel an ordinary handle, possibly stale
				if len(handles[0]) == 0 {
					continue
				}
				j := r.Intn(len(handles[0]))
				if pw, ph := handles[0][j].Pending(), handles[1][j].Pending(); pw != ph {
					t.Fatalf("seed %d op %d: Pending mismatch: wheel %v heap %v", seed, op, pw, ph)
				}
				w.Cancel(handles[0][j])
				h.Cancel(handles[1][j])
			case k < 70: // cancel through a fired block handle: a no-op
				if len(fired[0]) == 0 {
					continue
				}
				j := r.Intn(len(fired[0]))
				for i, hd := range [2]Handle{fired[0][j], fired[1][j]} {
					if hd.Pending() || hd.Canceled() {
						t.Fatalf("seed %d op %d impl %d: fired block handle Pending=%v Canceled=%v",
							seed, op, i, hd.Pending(), hd.Canceled())
					}
				}
				lw, lh := w.Len(), h.Len()
				w.Cancel(fired[0][j])
				h.Cancel(fired[1][j])
				if w.Len() != lw || h.Len() != lh {
					t.Fatalf("seed %d op %d: stale cancel changed Len: wheel %d→%d heap %d→%d",
						seed, op, lw, w.Len(), lh, h.Len())
				}
			case k < 82: // pop a burst
				for i := r.Intn(4); i >= 0; i-- {
					check(op, w.Pop(), h.Pop())
				}
			case k < 94: // drain a bounded slice, RunUntil-style
				deadline := now + time.Duration(r.Int63n(int64(200*time.Millisecond)))
				for check(op, w.PopUntil(deadline), h.PopUntil(deadline)) {
				}
				if deadline > now {
					now = deadline
				}
			default: // peek
				pw, ph := w.Peek(), h.Peek()
				if (pw == nil) != (ph == nil) || pw != nil && (pw.At != ph.At || pw.arg != ph.arg) {
					t.Fatalf("seed %d op %d: peek mismatch: wheel %v heap %v", seed, op, pw, ph)
				}
			}
			if w.Len()+unscheduled != h.Len() {
				t.Fatalf("seed %d op %d: wheel Len %d + %d unscheduled, heap Len %d",
					seed, op, w.Len(), unscheduled, h.Len())
			}
		}
		for check(-1, w.Pop(), h.Pop()) {
		}
		if unscheduled != 0 {
			t.Fatalf("seed %d: %d block elements never scheduled", seed, unscheduled)
		}
	}
}

func TestScheduleArgSeqRejectsUnreserved(t *testing.T) {
	var q Queue
	base := q.Reserve(2)
	q.ScheduleArgSeq(base+1, time.Millisecond, func(any) {}, nil)
	if h := q.ScheduleArg(0, func(any) {}, nil); h.seq != base+2 {
		t.Fatalf("first seq after a reservation of 2 at %d is %d, want %d", base, h.seq, base+2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling under an unreserved sequence number did not panic")
		}
	}()
	q.ScheduleArgSeq(base+3, 0, func(any) {}, nil)
}
