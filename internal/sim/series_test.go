package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"abw/internal/eventq"
	"abw/internal/rng"
	"abw/internal/unit"
)

// This file checks InjectSeries against the eager loop it replaces: the
// same randomized world is run once with every series injected up front
// (eagerSeries, the reference) and once lazily, and everything the run
// can observe — delivery and drop order, timer firings, recorder
// contents, link counters, the RNG draws of jitter and loss — must
// match exactly.

// eagerSeries is the reference InjectSeries is specified against: every
// packet built and queued at the moment of the call.
func eagerSeries(s *Sim, n int, at func(int) time.Duration, fill func(int, *Packet)) {
	for i := 0; i < n; i++ {
		p := s.NewPacket()
		fill(i, p)
		s.Inject(p, at(i))
	}
}

type injector func(s *Sim, n int, at func(int) time.Duration, fill func(int, *Packet))

// seriesPlan is one randomized world, drawn before either run so both
// execute the identical script.
type seriesPlan struct {
	hops    []hopPlan
	span    time.Duration   // tile length; tiles repeat until horizon
	offs    []time.Duration // sorted packet offsets within a tile, ties included
	sizes   []unit.Bytes
	horizon time.Duration
	// other is a second source, chained event to event, whose packets
	// often land on the exact nanosecond of a series packet.
	other []time.Duration
	// timers fire at (often tied) instants; cancels[i] cancels timer
	// cancels[i].timer from an event at cancels[i].at — before it fires
	// (a neighbouring event), after (a stale handle), or at setup.
	timers  []time.Duration
	cancels []cancelPlan
	stops   []time.Duration // RunUntil slice ends, often mid-tile
}

type hopPlan struct {
	capacity unit.Rate
	prop     time.Duration
	buffer   unit.Bytes
	jitter   time.Duration
	loss     float64
	seed     uint64
}

type cancelPlan struct {
	at    time.Duration // -1: cancel during setup
	timer int
}

func newSeriesPlan(seed int64) seriesPlan {
	r := rand.New(rand.NewSource(seed))
	var p seriesPlan
	for h := 1 + r.Intn(3); h > 0; h-- {
		hp := hopPlan{
			capacity: unit.Rate(5+r.Intn(60)) * unit.Mbps,
			prop:     time.Duration(r.Intn(3)) * time.Millisecond,
			seed:     r.Uint64(),
		}
		if r.Intn(2) == 0 {
			hp.buffer = unit.Bytes(3000 + r.Intn(20000)) // tail drops
		}
		if r.Intn(3) == 0 {
			hp.jitter = time.Duration(r.Intn(500)) * time.Microsecond
		}
		if r.Intn(3) == 0 {
			hp.loss = 0.05
		}
		p.hops = append(p.hops, hp)
	}
	p.span = time.Duration(2+r.Intn(40)) * time.Millisecond
	n := 1 + r.Intn(150)
	for i := 0; i < n; i++ {
		var off time.Duration
		switch k := r.Intn(10); {
		case k == 0 && i > 0: // same-nanosecond tie inside the series
			off = p.offs[i-1]
		case k == 1: // on the tile boundary, tied with the next tile's event
			off = p.span
		default:
			off = time.Duration(r.Int63n(int64(p.span) + 1))
		}
		p.offs = append(p.offs, off)
		p.sizes = append(p.sizes, unit.Bytes(40+r.Intn(1461)))
	}
	if r.Intn(4) == 0 {
		// A tile longer than the wheel's ~17 s epoch puts its tail in
		// the spill heap.
		p.span = 20 * time.Second
		p.offs[len(p.offs)-1] = p.span - time.Millisecond
	}
	sort.Slice(p.offs, func(i, j int) bool { return p.offs[i] < p.offs[j] })
	tiles := 1 + r.Intn(4)
	p.horizon = time.Duration(tiles)*p.span - time.Duration(r.Int63n(int64(p.span)))
	// An instant the run reaches: a series packet's, or any before the
	// horizon.
	instant := func() time.Duration {
		if r.Intn(2) == 0 {
			t := time.Duration(r.Intn(tiles))*p.span + p.offs[r.Intn(len(p.offs))]
			if t < p.horizon {
				return t
			}
		}
		return time.Duration(r.Int63n(int64(p.horizon)))
	}
	for i := r.Intn(60); i > 0; i-- {
		p.other = append(p.other, instant())
	}
	sort.Slice(p.other, func(i, j int) bool { return p.other[i] < p.other[j] })
	for i := r.Intn(30); i > 0; i-- {
		p.timers = append(p.timers, instant())
	}
	for i := 0; i < len(p.timers) && r.Intn(2) == 0; i++ {
		c := cancelPlan{at: -1, timer: r.Intn(len(p.timers))}
		if r.Intn(3) > 0 {
			c.at = instant()
		}
		p.cancels = append(p.cancels, c)
	}
	for i := r.Intn(8); i > 0; i-- {
		p.stops = append(p.stops, instant())
	}
	sort.Slice(p.stops, func(i, j int) bool { return p.stops[i] < p.stops[j] })
	return p
}

// seriesObs is everything a run exposes.
type seriesObs struct {
	log      []string
	arrivals [][]Arrival
	busy     [][]Interval
	drops    []int64
	counters [][6]int64
}

func runSeriesPlan(p seriesPlan, inject injector, pooled bool) seriesObs {
	s := New()
	s.SetPooling(pooled)
	var obs seriesObs
	logf := func(format string, args ...any) { obs.log = append(obs.log, fmt.Sprintf(format, args...)) }

	route := make([]*Link, len(p.hops))
	for i, hp := range p.hops {
		l := s.NewLink(fmt.Sprintf("hop%d", i), hp.capacity, hp.prop)
		l.BufferBytes = hp.buffer
		if hp.jitter > 0 {
			l.SetJitter(hp.jitter, rng.New(hp.seed))
		}
		if hp.loss > 0 {
			l.SetLoss(NewBernoulliLoss(hp.loss, rng.New(hp.seed+1)))
		}
		l.Attach(NewRecorder(hp.capacity))
		route[i] = l
	}
	onArrive := func(pk *Packet, at time.Duration) {
		logf("arrive flow=%d seq=%d size=%d sent=%v at=%v", pk.Flow, pk.Seq, pk.Size, pk.SentAt, at)
	}
	onDrop := func(pk *Packet, l *Link, at time.Duration) {
		logf("drop flow=%d seq=%d at %s %v", pk.Flow, pk.Seq, l.Name, at)
	}

	timers := make([]eventq.Handle, len(p.timers))
	scheduleTimers := func(from, to int) {
		for i := from; i < to; i++ {
			i := i
			timers[i] = s.At(p.timers[i], func() { logf("timer %d at %v", i, s.Now()) })
		}
	}
	// Half the timers go in before the first tile reserves its
	// sequence numbers, half after, so ties fall on both sides.
	scheduleTimers(0, len(p.timers)/2)

	var otherNext func(i int)
	otherNext = func(i int) {
		pk := s.NewPacket()
		pk.Size, pk.Kind, pk.Flow, pk.Seq, pk.Route = 1000, KindCross, 2, i, route
		pk.OnArrive, pk.OnDrop = onArrive, onDrop
		s.Inject(pk, s.Now())
		if i+1 < len(p.other) {
			s.At(p.other[i+1], func() { otherNext(i + 1) })
		}
	}
	if len(p.other) > 0 {
		s.At(p.other[0], func() { otherNext(0) })
	}

	// The tiled replay, shaped like scenario.replayTrace.
	var tile func(k int, start time.Duration)
	tile = func(k int, start time.Duration) {
		n := sort.Search(len(p.offs), func(i int) bool { return start+p.offs[i] >= p.horizon })
		inject(s, n,
			func(i int) time.Duration { return start + p.offs[i] },
			func(i int, pk *Packet) {
				pk.Size, pk.Kind, pk.Flow, pk.Seq, pk.Route = p.sizes[i], KindCross, 1, k<<16|i, route
				pk.OnArrive, pk.OnDrop = onArrive, onDrop
			})
		if next := start + p.span; next < p.horizon {
			s.At(next, func() { tile(k+1, next) })
		}
	}
	tile(0, 0)
	scheduleTimers(len(p.timers)/2, len(p.timers))

	for _, c := range p.cancels {
		c := c
		if c.at < 0 {
			s.Cancel(timers[c.timer])
			continue
		}
		s.At(c.at, func() {
			logf("cancel timer %d (pending %v) at %v", c.timer, timers[c.timer].Pending(), s.Now())
			s.Cancel(timers[c.timer])
		})
	}

	for _, t := range p.stops {
		s.RunUntil(t)
		logf("stop at %v", s.Now())
	}
	s.Run()
	if s.Pending() != 0 {
		panic("events left after Run")
	}
	for _, l := range route {
		r := l.Recorder()
		obs.arrivals = append(obs.arrivals, append([]Arrival(nil), r.Arrivals()...))
		obs.busy = append(obs.busy, append([]Interval(nil), r.BusyIntervals()...))
		obs.drops = append(obs.drops, r.Drops())
		obs.counters = append(obs.counters, [6]int64{
			l.Forwarded(), l.Dropped(), int64(l.DroppedBytes()),
			l.Lost(), int64(l.LostBytes()), int64(l.BytesServed()),
		})
	}
	return obs
}

func TestInjectSeriesMatchesEagerInjection(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		p := newSeriesPlan(seed)
		want := runSeriesPlan(p, eagerSeries, true)
		for _, pooled := range []bool{true, false} {
			got := runSeriesPlan(p, (*Sim).InjectSeries, pooled)
			if !reflect.DeepEqual(got, want) {
				for i := 0; i < len(got.log) && i < len(want.log); i++ {
					if got.log[i] != want.log[i] {
						t.Fatalf("seed %d pooled=%v: event %d: lazy %q, eager %q", seed, pooled, i, got.log[i], want.log[i])
					}
				}
				t.Fatalf("seed %d pooled=%v: lazy run (%d events) differs from eager (%d events)",
					seed, pooled, len(got.log), len(want.log))
			}
		}
	}
}

// TestInjectSeriesQueuesOnePacket pins the point of the lazy path: a
// long series holds one event and no packet until it runs, whatever
// its length.
func TestInjectSeriesQueuesOnePacket(t *testing.T) {
	s := New()
	l := s.NewLink("l", 100*unit.Mbps, 0)
	const n = 10000
	delivered := 0
	s.InjectSeries(n,
		func(i int) time.Duration { return time.Duration(i) * time.Millisecond },
		func(i int, p *Packet) {
			p.Size, p.Route = 1000, []*Link{l}
			p.OnArrive = func(*Packet, time.Duration) { delivered++ }
		})
	if got := s.Pending(); got != 1 {
		t.Fatalf("after InjectSeries(%d): %d events pending, want 1", n, got)
	}
	// Stop between two packets, once the link has gone idle.
	s.RunUntil(n/2*time.Millisecond + time.Millisecond/2)
	if got := s.Pending(); got != 1 {
		t.Fatalf("mid-series: %d events pending, want 1", got)
	}
	s.Run()
	if delivered != n {
		t.Fatalf("delivered %d packets, want %d", delivered, n)
	}
}

func TestInjectSeriesRejectsDecreasingTimes(t *testing.T) {
	s := New()
	s.InjectSeries(2,
		func(i int) time.Duration { return time.Duration(2-i) * time.Millisecond },
		func(int, *Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a series going back in time did not panic")
		}
	}()
	s.Run()
}
