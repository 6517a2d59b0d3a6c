// Package livenet implements core.Transport over real sockets: probing
// streams are UDP packets paced by a hybrid sleep/busy-wait loop, and a
// TCP control channel coordinates stream setup and result collection.
// It turns the estimation tools in internal/tools into usable network
// programs — the paper's closing call is to integrate avail-bw
// estimation with real applications — while the simulator transport
// remains the substrate for controlled experiments.
//
// The receiver is a concurrent multi-session measurement server: every
// control connection gets its own server-assigned session, probe
// packets carry (sessionID, streamID), and per-session stream state
// lives behind a per-session lock, so concurrent senders never share
// mutable state and a disconnecting sender's streams are reaped with
// its session. Session, stream, and byte limits are enforced with
// explicit "error" control replies rather than silent disconnects.
//
// Clock model: send timestamps are on the sender's monotonic clock and
// receive timestamps on the receiver's. The unknown offset is constant
// over a stream, so one-way-delay *trends*, input/output *rates*, and
// pair *gaps* — everything the estimators consume — are unaffected.
// Different sessions see different offsets (one per sender clock), but
// no estimator compares timestamps across sessions.
//
// Timing quality: Go's garbage collector and scheduler can perturb
// microsecond-scale pacing (the repro calibration notes this). The
// sender therefore locks its OS thread, preallocates every buffer, and
// spins for the final stretch before each departure; residual jitter on
// loopback is typically a few microseconds.
package livenet

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"abw/internal/clock"
	"abw/internal/livenet/ingest"
)

// Config bounds a Receiver's resource usage. Zero fields take the
// defaults; limits exist so one runaway or hostile sender cannot
// exhaust the receiver that everyone else's measurements depend on.
type Config struct {
	// MaxSessions is the number of concurrent control connections
	// (default 64). Further dials are refused with an "error" reply.
	MaxSessions int
	// MaxStreams is the number of outstanding (opened, not yet
	// reported) streams per session (default 8).
	MaxStreams int
	// MaxBytes is the outstanding declared probe volume per session —
	// the sum of count×size over open streams (default 64 MiB).
	MaxBytes int64
	// MaxCount is the packet count accepted for one stream
	// (default 1<<20).
	MaxCount int
	// RcvBuf requests an SO_RCVBUF of this many bytes on the probe
	// socket (0 leaves the OS default). The kernel may grant less (or,
	// on Linux, double it); Stats reports what was actually granted.
	RcvBuf int
	// Batch is the maximum datagrams drained per ingest syscall on the
	// batched fast path (0 = ingest's default of 64).
	Batch int
	// ForceFallback disables the batched kernel-timestamped ingest fast
	// path, selecting the portable single-read loop with userspace
	// arrival stamps — for differential tests and A/B timing studies.
	ForceFallback bool
	// Clock injects the timer source for the receiver's straggler
	// waits (nil = the real clock). Tests use a fake so the waits are
	// script-driven instead of wall-clock sleeps.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 8
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.MaxCount <= 0 {
		c.MaxCount = 1 << 20
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Stats is a snapshot of a Receiver's counters, for monitoring and for
// asserting that sessions leave no state behind.
type Stats struct {
	ActiveSessions int // control connections currently open
	ActiveStreams  int // streams opened but not yet reported/reaped

	Sessions         uint64 // sessions ever accepted
	Streams          uint64 // streams ever opened
	Packets          uint64 // probe packets stamped into a stream
	Drops            uint64 // datagrams discarded (all causes below included)
	SizeMismatches   uint64 // datagram length ≠ the stream's declared size
	SourceMismatches uint64 // datagram source ≠ the session's bound source
	Refused          uint64 // sessions refused at MaxSessions

	Batches          uint64 // ingest batches drained (Packets+Drops arrivals over this many syscall rounds)
	RcvBufBytes      int    // receive buffer the kernel actually granted
	KernelTimestamps bool   // arrival stamps come from kernel RX timestamps
}

func (s Stats) String() string {
	src := "user"
	if s.KernelTimestamps {
		src = "kernel"
	}
	return fmt.Sprintf("sessions=%d/%d streams=%d/%d packets=%d drops=%d batches=%d ts=%s",
		s.ActiveSessions, s.Sessions, s.ActiveStreams, s.Streams, s.Packets, s.Drops, s.Batches, src)
}

// Receiver is the probing sink: a UDP socket recording per-packet
// arrival timestamps and a TCP control listener reporting them back.
// All methods are safe for concurrent use.
type Receiver struct {
	cfg    Config
	tcp    net.Listener
	udp    *net.UDPConn
	ing    ingest.Reader
	rcvbuf int // effective SO_RCVBUF the kernel granted

	mu       sync.RWMutex // guards sessions only
	sessions map[uint32]*session

	packets       atomic.Uint64
	drops         atomic.Uint64
	sizeMismatch  atomic.Uint64
	srcMismatch   atomic.Uint64
	totalSessions atomic.Uint64
	totalStreams  atomic.Uint64
	refused       atomic.Uint64
	batches       atomic.Uint64

	closeOnce sync.Once
	closed    chan struct{}
}

// ListenReceiver starts a receiver with default limits on the given
// TCP address (e.g. "127.0.0.1:0"); the UDP probe socket binds the
// same address as the chosen TCP port.
func ListenReceiver(addr string) (*Receiver, error) {
	return ListenReceiverConfig(addr, Config{})
}

// ListenReceiverConfig starts a receiver with explicit limits.
func ListenReceiverConfig(addr string, cfg Config) (*Receiver, error) {
	tl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: control listen: %w", err)
	}
	uaddr := tl.Addr().(*net.TCPAddr)
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: uaddr.IP, Port: uaddr.Port})
	if err != nil {
		tl.Close()
		return nil, fmt.Errorf("livenet: probe listen: %w", err)
	}
	r := &Receiver{
		cfg:      cfg.withDefaults(),
		tcp:      tl,
		udp:      uc,
		sessions: make(map[uint32]*session),
		closed:   make(chan struct{}),
	}
	if r.cfg.RcvBuf > 0 {
		// Best effort: the kernel clamps to rmem_max, and Stats reports
		// what was actually granted.
		uc.SetReadBuffer(r.cfg.RcvBuf)
	}
	r.rcvbuf = ingest.EffectiveRcvBuf(uc)
	r.ing = ingest.NewReader(uc, ingest.Config{
		Batch:         r.cfg.Batch,
		Slot:          maxPacket,
		ForceFallback: r.cfg.ForceFallback,
	})
	go r.udpLoop()
	go r.acceptLoop()
	return r, nil
}

// Addr returns the receiver's control address for Dial.
func (r *Receiver) Addr() string { return r.tcp.Addr().String() }

// Close shuts the receiver down: the listeners stop and every live
// session's control connection is closed (which reaps its streams).
func (r *Receiver) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.tcp.Close()
		r.udp.Close()
		r.mu.RLock()
		conns := make([]net.Conn, 0, len(r.sessions))
		for _, s := range r.sessions {
			conns = append(conns, s.conn)
		}
		r.mu.RUnlock()
		for _, c := range conns {
			c.Close()
		}
	})
}

// Stats snapshots the receiver's counters.
func (r *Receiver) Stats() Stats {
	st := Stats{
		Sessions:         r.totalSessions.Load(),
		Streams:          r.totalStreams.Load(),
		Packets:          r.packets.Load(),
		Drops:            r.drops.Load(),
		SizeMismatches:   r.sizeMismatch.Load(),
		SourceMismatches: r.srcMismatch.Load(),
		Refused:          r.refused.Load(),
		Batches:          r.batches.Load(),
		RcvBufBytes:      r.rcvbuf,
		KernelTimestamps: r.ing != nil && r.ing.Kernel(),
	}
	r.mu.RLock()
	st.ActiveSessions = len(r.sessions)
	for _, s := range r.sessions {
		st.ActiveStreams += s.streamCount()
	}
	r.mu.RUnlock()
	return st
}

// udpLoop drains the ingest reader and routes every probe datagram to
// its session: the receiver lock is held only for the map lookup
// (read-locked, so concurrent control traffic does not stall
// stamping), and the per-packet bookkeeping happens under the owning
// session's own lock. All per-batch state is allocated once up front;
// the ingest slot views handed out by ReadBatch are consumed entirely
// before the next call, honoring the buffer-ring ownership rule.
func (r *Receiver) udpLoop() {
	batch := make([]ingest.Datagram, r.ing.BatchSize())
	hs := make([]probeHeader, len(batch))
	oks := make([]bool, len(batch))
	for {
		n, err := r.ing.ReadBatch(batch)
		if err != nil {
			select {
			case <-r.closed:
				return
			default:
				continue
			}
		}
		if n == 0 {
			continue
		}
		r.batches.Add(1)
		parseProbeBatch(batch[:n], hs, oks)
		for i := 0; i < n; i++ {
			if !oks[i] {
				r.drops.Add(1)
				continue
			}
			h := hs[i]
			r.mu.RLock()
			s := r.sessions[h.session]
			r.mu.RUnlock()
			if s == nil || !s.stamp(batch[i].Src, h.stream, h.seq, len(batch[i].Payload), batch[i].AtNs) {
				r.drops.Add(1)
				continue
			}
			r.packets.Add(1)
		}
	}
}

func (r *Receiver) acceptLoop() {
	for {
		conn, err := r.tcp.Accept()
		if err != nil {
			select {
			case <-r.closed:
				return
			default:
				continue
			}
		}
		go r.serve(conn)
	}
}

// addSession registers a new session under a fresh server-assigned ID,
// or reports the limit for the refusal reply. IDs are random, not
// sequential: the session ID doubles as the proof-of-possession token
// in every probe datagram (it travels only over the session's own TCP
// channel), so an off-path spoofer cannot guess a live session to race
// its source binding or stamp its slots.
func (r *Receiver) addSession(conn net.Conn) (*session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Checked under the lock so a connection accepted just before
	// Close cannot register after Close's session snapshot and
	// outlive the receiver.
	select {
	case <-r.closed:
		return nil, fmt.Errorf("receiver is shut down")
	default:
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		r.refused.Add(1)
		return nil, fmt.Errorf("session limit reached (%d active)", r.cfg.MaxSessions)
	}
	id, err := r.newSessionID()
	if err != nil {
		return nil, err
	}
	s := &session{
		id:      id,
		r:       r,
		conn:    conn,
		streams: make(map[uint32]*rxStream),
	}
	r.sessions[s.id] = s
	r.totalSessions.Add(1)
	return s, nil
}

// newSessionID draws an unused random nonzero session ID; the caller
// holds r.mu.
func (r *Receiver) newSessionID() (uint32, error) {
	var b [4]byte
	for tries := 0; tries < 32; tries++ {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("session id: %v", err)
		}
		id := binary.BigEndian.Uint32(b[:])
		if _, taken := r.sessions[id]; id != 0 && !taken {
			return id, nil
		}
	}
	return 0, fmt.Errorf("session id space exhausted")
}

// dropSession removes a session and reaps all of its stream state —
// the cleanup path for sender error, disconnect, and receiver close
// alike. After it returns, udpLoop can no longer route to the session
// and its streams are unreachable.
func (r *Receiver) dropSession(s *session) {
	r.mu.Lock()
	delete(r.sessions, s.id)
	r.mu.Unlock()
	s.mu.Lock()
	s.streams = nil
	s.pending = 0
	s.mu.Unlock()
}
