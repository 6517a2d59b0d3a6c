package sim

import (
	"fmt"
	"time"

	"abw/internal/unit"
)

// Kind classifies packets so recorders can separate probe traffic from
// the cross traffic whose avail-bw is being estimated.
type Kind uint8

// Packet kinds.
const (
	KindCross Kind = iota // background cross traffic
	KindProbe             // measurement probe packets
	KindData              // TCP data segments
	KindAck               // TCP acknowledgments

	// kindSentinel terminates the enum. New kinds go above it, so the
	// recorder's per-kind counters size themselves automatically.
	kindSentinel
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCross:
		return "cross"
	case KindProbe:
		return "probe"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return "unknown"
	}
}

// Packet is one simulated packet. Packets are routed hop-by-hop through
// Route; when the last hop's transmission (plus propagation) completes,
// OnArrive fires with the delivery time.
type Packet struct {
	Size unit.Bytes
	Kind Kind

	// Flow and Seq identify the packet within its sender's stream; the
	// probing receiver uses them to reconstruct one-way delays, and TCP
	// uses them for its sequence space.
	Flow int
	Seq  int

	// SentAt is stamped by Inject with the injection time.
	SentAt time.Duration

	// Route is the remaining sequence of links; hop indexes the next one.
	Route []*Link
	hop   int

	// OnArrive, if non-nil, is called at final delivery.
	OnArrive func(p *Packet, at time.Duration)

	// OnDrop, if non-nil, is called when any link on the route drops the
	// packet due to a full buffer (TCP relies on this only for counters;
	// loss detection is end-to-end).
	OnDrop func(p *Packet, l *Link, at time.Duration)

	// Meta carries protocol-private state (e.g. TCP segment headers).
	Meta any

	// enqAt is stamped by each link when the packet joins its queue;
	// CoDel reads it at dequeue time as the packet's sojourn time.
	enqAt time.Duration

	// pooled marks packets obtained from Sim.NewPacket: they return to
	// the simulation's free list after their final OnArrive/OnDrop.
	pooled bool
}

// Inject introduces the packet into the simulation at time at, delivering
// it to the first link of its route (or straight to OnArrive for an empty
// route, which models a zero-length path). The injection event is
// allocation-free: it reuses a pooled event with the simulation's
// long-lived injection callback.
func (s *Sim) Inject(p *Packet, at time.Duration) {
	s.callbacks()
	s.atArg(at, s.injectFn, p)
}

// InjectSeries injects n packets, packet i at time at(i), where at must
// be non-decreasing in i. The run is bit-identical to the eager loop
//
//	for i := 0; i < n; i++ {
//		p := s.NewPacket()
//		fill(i, p)
//		s.Inject(p, at(i))
//	}
//
// executed at the moment of the call, yet only the next packet of the
// series is ever queued and no packet exists before it enters the
// network: the call reserves the n event sequence numbers that loop
// would have consumed, and each injection schedules its successor under
// the next one, so every event keeps the loop's exact (time, sequence)
// key. fill runs on a fresh pooled packet at injection time; it must
// depend on i alone (no random draws, no simulation state), since it no
// longer runs at the moment of the call.
func (s *Sim) InjectSeries(n int, at func(i int) time.Duration, fill func(i int, p *Packet)) {
	if n <= 0 {
		return
	}
	s.callbacks()
	s.scheduleSeries(&series{base: s.q.Reserve(n), n: n, at: at, fill: fill})
}

// series is the cursor of one InjectSeries call: next is the index of
// the one packet currently queued.
type series struct {
	base    uint64
	next, n int
	at      func(i int) time.Duration
	fill    func(i int, p *Packet)
}

func (s *Sim) scheduleSeries(sr *series) {
	t := sr.at(sr.next)
	if t < s.now {
		panic(fmt.Sprintf("sim: series packet %d at %v before now %v", sr.next, t, s.now))
	}
	s.q.ScheduleArgSeq(sr.base+uint64(sr.next), t, s.seriesFn, sr)
}

// injectSeries fires one packet of a series, queueing its successor
// first.
func (s *Sim) injectSeries(arg any) {
	sr := arg.(*series)
	i := sr.next
	if sr.next++; sr.next < sr.n {
		s.scheduleSeries(sr)
	}
	p := s.NewPacket()
	sr.fill(i, p)
	s.injectNow(p)
}

// forward moves the packet into the next element of its route. Packets
// from NewPacket are recycled once the final OnArrive returns.
func (s *Sim) forward(p *Packet) {
	if p.hop < len(p.Route) {
		p.Route[p.hop].deliver(p)
		return
	}
	if p.OnArrive != nil {
		p.OnArrive(p, s.now)
	}
	s.releasePacket(p)
}
