package probe

import (
	"time"

	"abw/internal/sim"
)

// SendOverSim schedules the probing stream on the simulator starting at
// the given virtual time and returns the record, which fills in as the
// simulation executes. The caller is responsible for running the
// simulation far enough for all packets to arrive (or be dropped).
//
// flow labels the probe packets so multiple concurrent streams can share
// a path without confusing the receiver.
func SendOverSim(s *sim.Sim, route []*sim.Link, spec StreamSpec, at time.Duration, flow int) (*Record, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rec := NewRecord(spec)
	// One pair of callbacks serves the whole stream (the arrival reads
	// the sequence number off the packet), and the packets themselves
	// come from the simulation's free list: they are recycled as soon as
	// the callbacks return, so probing allocates per stream, not per
	// packet.
	onArrive := func(p *sim.Packet, t time.Duration) {
		rec.Recv[p.Seq] = t
		rec.MarkResolved()
	}
	onDrop := func(*sim.Packet, *sim.Link, time.Duration) {
		rec.MarkResolved()
	}
	// The send times accumulate straight into rec.Sent: at plus the
	// same integer sums Departures would build.
	t := at
	for i := range rec.Sent {
		if i > 0 {
			t += spec.gap(i - 1)
		}
		rec.Sent[i] = t
		p := s.NewPacket()
		p.Size, p.Kind, p.Flow, p.Seq, p.Route = spec.PktSize, sim.KindProbe, flow, i, route
		p.OnArrive, p.OnDrop = onArrive, onDrop
		s.Inject(p, t)
	}
	return rec, nil
}
