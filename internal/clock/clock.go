// Package clock is the injectable time source shared by the monitor's
// scheduler and the live receiver's straggler drain. Production code
// uses Real; tests inject a Fake so every "what time is it" and "wake
// me later" is a pure function of the test's advance script, not of
// machine speed.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock reads the time and hands out one-shot timers.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
}

// Timer is a one-shot timer handed out by a Clock.
type Timer interface {
	// C is the channel the firing is delivered on.
	C() <-chan time.Time
	// Reset re-arms the timer for d from now, dropping any undelivered
	// firing.
	Reset(d time.Duration)
	// Stop disarms the timer; a firing already delivered stays in C.
	Stop()
}

// Real is the production Clock, backed by the runtime clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return &realTimer{t: time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (rt *realTimer) C() <-chan time.Time { return rt.t.C }

func (rt *realTimer) Reset(d time.Duration) {
	// Drain-then-reset, the pre-Go-1.23 safe pattern; harmless on newer
	// runtimes.
	if !rt.t.Stop() {
		select {
		case <-rt.t.C:
		default:
		}
	}
	rt.t.Reset(d)
}

func (rt *realTimer) Stop() { rt.t.Stop() }

// Fake is a manually advanced Clock for deterministic tests: time moves
// only on Advance, and timers fire synchronously inside the Advance
// call, in deadline order. A timer whose deadline is already reached
// (d <= 0) fires inside NewTimer or Reset. It is safe for concurrent
// use.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

// NewFake returns a fake clock starting at the given instant.
func NewFake(at time.Time) *Fake {
	return &Fake{now: at}
}

// Now implements Clock.
func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer implements Clock.
func (c *Fake) NewTimer(d time.Duration) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{c: c, ch: make(chan time.Time, 1), at: c.now.Add(d), armed: true}
	c.timers = append(c.timers, t)
	c.fireDueLocked()
	return t
}

// Advance moves the clock forward by d, firing every timer whose
// deadline is reached, in deadline order. Goroutines woken by a firing
// run concurrently with the caller as usual; Advance only guarantees
// the firings are delivered.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.fireDueLocked()
}

// fireDueLocked delivers every due, armed timer; the caller holds c.mu.
func (c *Fake) fireDueLocked() {
	sort.SliceStable(c.timers, func(i, j int) bool { return c.timers[i].at.Before(c.timers[j].at) })
	for _, t := range c.timers {
		if t.armed && !t.at.After(c.now) {
			t.armed = false
			select {
			case t.ch <- t.at:
			default:
			}
		}
	}
}

type fakeTimer struct {
	c     *Fake
	ch    chan time.Time
	at    time.Time
	armed bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Reset(d time.Duration) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	select {
	case <-t.ch:
	default:
	}
	t.at = t.c.now.Add(d)
	t.armed = true
	t.c.fireDueLocked()
}

func (t *fakeTimer) Stop() {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.armed = false
}
