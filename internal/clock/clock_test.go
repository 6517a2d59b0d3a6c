package clock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Unix(1_700_000_000, 0).UTC()

// fired returns the firing waiting in t's channel, if any.
func fired(t Timer) (time.Time, bool) {
	select {
	case at := <-t.C():
		return at, true
	default:
		return time.Time{}, false
	}
}

func TestFakeAdvanceFiresDueTimersInDeadlineOrder(t *testing.T) {
	c := NewFake(epoch)
	late := c.NewTimer(3 * time.Second)
	early := c.NewTimer(1 * time.Second)
	mid := c.NewTimer(2 * time.Second)
	beyond := c.NewTimer(10 * time.Second)

	c.Advance(5 * time.Second)
	if got := c.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Now = %v, want epoch+5s", got)
	}
	// Firings are delivered in the order the clock walks its timers,
	// which must be deadline order, not creation order.
	var order []time.Duration
	for _, ft := range c.timers {
		if !ft.armed {
			order = append(order, ft.at.Sub(epoch))
		}
	}
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second}
	if len(order) != len(want) {
		t.Fatalf("fired deadlines %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired deadlines %v, want %v", order, want)
		}
	}
	for _, tc := range []struct {
		name string
		tm   Timer
		d    time.Duration
	}{{"early", early, time.Second}, {"mid", mid, 2 * time.Second}, {"late", late, 3 * time.Second}} {
		at, ok := fired(tc.tm)
		if !ok {
			t.Fatalf("%s timer did not fire", tc.name)
		}
		if !at.Equal(epoch.Add(tc.d)) {
			t.Errorf("%s timer delivered %v, want its deadline epoch+%v", tc.name, at, tc.d)
		}
	}
	if _, ok := fired(beyond); ok {
		t.Fatal("timer beyond the advance fired")
	}
}

func TestFakeResetDropsUndeliveredFiringAndRearms(t *testing.T) {
	c := NewFake(epoch)
	tm := c.NewTimer(time.Second)
	c.Advance(time.Second) // fires; nobody reads it
	tm.Reset(2 * time.Second)
	if _, ok := fired(tm); ok {
		t.Fatal("Reset kept the undelivered firing")
	}
	c.Advance(2*time.Second - time.Nanosecond)
	if _, ok := fired(tm); ok {
		t.Fatal("re-armed timer fired before its new deadline")
	}
	c.Advance(time.Nanosecond)
	at, ok := fired(tm)
	if !ok {
		t.Fatal("re-armed timer did not fire at its new deadline")
	}
	if want := epoch.Add(3 * time.Second); !at.Equal(want) {
		t.Fatalf("re-armed timer delivered %v, want %v", at, want)
	}
}

func TestFakeStopDisarms(t *testing.T) {
	c := NewFake(epoch)
	tm := c.NewTimer(time.Second)
	tm.Stop()
	c.Advance(time.Hour)
	if _, ok := fired(tm); ok {
		t.Fatal("stopped timer fired")
	}
}

func TestFakeNonPositiveDurationFiresAtOnce(t *testing.T) {
	c := NewFake(epoch)
	for _, d := range []time.Duration{0, -time.Second} {
		tm := c.NewTimer(d)
		at, ok := fired(tm)
		if !ok {
			t.Fatalf("NewTimer(%v) did not fire without an Advance", d)
		}
		if want := epoch.Add(d); !at.Equal(want) {
			t.Fatalf("NewTimer(%v) delivered %v, want %v", d, at, want)
		}
	}
}

// TestFakeConcurrentUse exercises the clock from several goroutines at
// once (run it under -race): timers are created, reset and stopped
// while another goroutine advances. Once every goroutine is done and
// the clock has passed every deadline, each timer left armed has fired.
func TestFakeConcurrentUse(t *testing.T) {
	c := NewFake(epoch)
	const workers, perWorker = 4, 50
	kept := make(chan Timer, workers*perWorker)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		for {
			select {
			case <-stop:
				return
			default:
				c.Advance(time.Millisecond)
				_ = c.Now()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tm := c.NewTimer(time.Duration(i%7) * time.Millisecond)
				switch (w + i) % 3 {
				case 0:
					tm.Stop()
				case 1:
					tm.Reset(time.Duration(i%5) * time.Millisecond)
					kept <- tm
				default:
					kept <- tm
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-advanced
	close(kept)
	c.Advance(time.Second)
	n := 0
	for tm := range kept {
		if _, ok := fired(tm); !ok {
			t.Fatal("an armed timer did not fire once the clock passed its deadline")
		}
		n++
	}
	if n == 0 {
		t.Fatal("no timer was kept armed")
	}
}

func TestRealTimerFiresAndResets(t *testing.T) {
	var c Clock = Real{}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer did not fire")
	}
	tm.Reset(time.Hour)
	tm.Stop()
	select {
	case <-tm.C():
		t.Fatal("stopped real timer fired")
	case <-time.After(10 * time.Millisecond):
	}
}
