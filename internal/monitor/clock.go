package monitor

import (
	"time"

	"abw/internal/clock"
)

// Clock is the time source the monitor schedules against (see package
// clock). Everything in this package that asks "what time is it" or
// "wake me later" goes through a Clock; nothing calls time.Now or
// time.After directly.
type Clock = clock.Clock

// Timer is the clock-owned one-shot timer the scheduler waits on.
type Timer = clock.Timer

// FakeClock is the manually advanced Clock for deterministic tests.
type FakeClock = clock.Fake

// NewFakeClock returns a fake clock starting at the given instant.
func NewFakeClock(at time.Time) *FakeClock { return clock.NewFake(at) }
