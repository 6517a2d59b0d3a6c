package livenet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"abw/internal/clock"
	"abw/internal/livenet/ingest"
)

// fakeClock is a clock.Fake that records the duration of every timer
// it hands out, so a test can wait until the straggler drain is armed.
// Its timers fire only when the test advances the clock, which lets the
// drain tests prove the wait is event-driven (completion and shutdown
// unblock it) without a single wall-clock sleep on the assertion path.
type fakeClock struct {
	*clock.Fake
	mu        sync.Mutex
	durations []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{Fake: clock.NewFake(time.Unix(0, 0))} }

func (c *fakeClock) NewTimer(d time.Duration) clock.Timer {
	t := c.Fake.NewTimer(d)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durations = append(c.durations, d)
	return t
}

// armed lists every created timer's duration, in creation order.
func (c *fakeClock) armed() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.durations...)
}

// ingestOutcome is what one receiver mode made of a fixed datagram
// sequence: which slots resolved and what the counters say. The
// differential test requires both ingest paths to produce the same one.
type ingestOutcome struct {
	resolved []bool
	packets  uint64
	drops    uint64
	sizeMism uint64
}

// runFixedSequence drives one receiver (fast path or forced fallback)
// through a fixed adversarial datagram sequence — valid, out-of-order,
// duplicate, garbage, truncated, wrong-size — and reports the outcome.
func runFixedSequence(t *testing.T, force bool) ingestOutcome {
	t.Helper()
	r, err := ListenReceiverConfig("127.0.0.1:0", Config{ForceFallback: force})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	const size = 64
	if reply := openRawStream(t, tr, 1, 4, size); reply.Type != msgReady {
		t.Fatalf("force=%v: stream setup reply = %+v", force, reply)
	}
	sid := tr.SessionID()
	sequence := [][]byte{
		probePacket(sid, 1, 0, size),         // valid, stamps slot 0
		probePacket(sid, 1, 2, size),         // valid, out of order, stamps slot 2
		probePacket(sid, 1, 2, size),         // duplicate: dropped
		{0xde, 0xad, 0xbe, 0xef},             // garbage: dropped
		probePacket(sid, 1, 1, size)[:7],     // truncated mid-header: dropped
		probePacket(sid, 1, 1, packetHeader), // wrong size for its stream: dropped
		probePacket(sid, 1, 1, size),         // valid, stamps slot 1
	}
	for _, pkt := range sequence {
		if _, err := tr.udp.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	// Slot 3 is never sent: it must report as a loss.
	waitFor(t, "sequence fully accounted", func() bool {
		st := r.Stats()
		return st.Packets == 3 && st.Drops == 4
	})
	if force && r.Stats().KernelTimestamps {
		t.Fatalf("forced-fallback receiver reports kernel timestamps")
	}
	res := finishRawStream(t, tr, 1, 0)
	if res.Type != msgResult || len(res.RecvNs) != 4 {
		t.Fatalf("force=%v: result = %+v", force, res)
	}
	// Arrival order was slot 0, then 2, then 1: stamps must respect it.
	if !(res.RecvNs[0] <= res.RecvNs[2] && res.RecvNs[2] <= res.RecvNs[1]) {
		t.Fatalf("force=%v: stamps out of arrival order: %v", force, res.RecvNs)
	}
	st := r.Stats()
	out := ingestOutcome{
		resolved: make([]bool, len(res.RecvNs)),
		packets:  st.Packets,
		drops:    st.Drops,
		sizeMism: st.SizeMismatches,
	}
	for i, ns := range res.RecvNs {
		out.resolved[i] = ns >= 0
	}
	return out
}

// TestFastAndFallbackProduceIdenticalRecords is the tentpole's
// differential test: the batched kernel-timestamped fast path and the
// portable single-read fallback must turn the same datagram sequence
// into the same stream record — same resolved slots, same drop
// accounting — differing only in where the timestamps came from.
func TestFastAndFallbackProduceIdenticalRecords(t *testing.T) {
	fast := runFixedSequence(t, false)
	fallback := runFixedSequence(t, true)
	if fmt.Sprintf("%+v", fast) != fmt.Sprintf("%+v", fallback) {
		t.Fatalf("paths diverge:\n fast:     %+v\n fallback: %+v", fast, fallback)
	}
	want := []bool{true, true, true, false}
	for i, ok := range want {
		if fast.resolved[i] != ok {
			t.Fatalf("slot %d resolved=%v, want %v", i, fast.resolved[i], ok)
		}
	}
	if fast.sizeMism != 1 {
		t.Fatalf("SizeMismatches = %d, want 1", fast.sizeMism)
	}
}

// TestLoopbackSoakExactAccounting pushes 100k datagrams through a
// receiver on loopback with sender-side flow control and demands exact
// accounting: every datagram stamped, zero drops, every sequence slot
// resolved, and the byte totals adding up. Flow control (send a chunk,
// wait for it to be stamped) keeps the test independent of kernel
// socket buffer depth, so it holds under -race on slow CI hosts too.
func TestLoopbackSoakExactAccounting(t *testing.T) {
	const (
		count = 100_000
		size  = 64
		chunk = 200
	)
	r, err := ListenReceiverConfig("127.0.0.1:0", Config{
		MaxCount: count,
		MaxBytes: count * size,
		RcvBuf:   4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	if reply := openRawStream(t, tr, 1, count, size); reply.Type != msgReady {
		t.Fatalf("stream setup reply = %+v", reply)
	}
	w := ingest.NewWriter(tr.udp)
	bufs := make([][]byte, chunk)
	for i := range bufs {
		bufs[i] = probePacket(tr.SessionID(), 1, 0, size)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for sent := 0; sent < count; {
		n := chunk
		if count-sent < n {
			n = count - sent
		}
		for i := 0; i < n; i++ {
			bufs[i][12] = byte(uint32(sent+i) >> 24)
			bufs[i][13] = byte(uint32(sent+i) >> 16)
			bufs[i][14] = byte(uint32(sent+i) >> 8)
			bufs[i][15] = byte(uint32(sent + i))
		}
		if err := w.WriteBatch(bufs[:n]); err != nil {
			t.Fatal(err)
		}
		sent += n
		for r.Stats().Packets < uint64(sent) {
			if time.Now().After(deadline) {
				t.Fatalf("stalled: %d of %d stamped", r.Stats().Packets, sent)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	st := r.Stats()
	if st.Packets != count || st.Drops != 0 || st.SizeMismatches != 0 || st.SourceMismatches != 0 {
		t.Fatalf("inexact accounting: %+v", st)
	}
	if st.Batches == 0 || st.Batches > count {
		t.Fatalf("Batches = %d, want in [1, %d]", st.Batches, count)
	}
	res := finishRawStream(t, tr, 1, 0)
	if res.Type != msgResult || len(res.RecvNs) != count {
		t.Fatalf("result = type %q with %d slots", res.Type, len(res.RecvNs))
	}
	bytes := 0
	last := int64(-1)
	for i, ns := range res.RecvNs {
		if ns < 0 {
			t.Fatalf("slot %d lost despite flow control", i)
		}
		if ns < last {
			t.Fatalf("stamp %d went backwards: %d after %d", i, ns, last)
		}
		last = ns
		bytes += size
	}
	if bytes != count*size {
		t.Fatalf("byte total %d, want %d", bytes, count*size)
	}
}

// TestFinishStreamWaitsOnInjectedClock holds the straggler drain to its
// event-driven contract: with an injected clock the wait blocks until
// the clock reaches the sender's declared 5 s deadline, and not a
// nanosecond earlier.
func TestFinishStreamWaitsOnInjectedClock(t *testing.T) {
	fc := newFakeClock()
	r, err := ListenReceiverConfig("127.0.0.1:0", Config{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	const size = 32
	if reply := openRawStream(t, tr, 1, 2, size); reply.Type != msgReady {
		t.Fatalf("stream setup reply = %+v", reply)
	}
	if _, err := tr.udp.Write(probePacket(tr.SessionID(), 1, 0, size)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first packet stamped", func() bool { return r.Stats().Packets == 1 })

	results := make(chan ctrlMsg, 1)
	go func() { results <- finishRawStream(t, tr, 1, 5000) }()
	waitFor(t, "drain timer armed", func() bool { return len(fc.armed()) == 1 })
	if ds := fc.armed(); ds[0] != 5*time.Second {
		t.Fatalf("drain timer armed for %v, want 5s", ds[0])
	}
	fc.Advance(5*time.Second - time.Nanosecond)
	select {
	case res := <-results:
		t.Fatalf("finish returned %+v before the drain deadline", res)
	case <-time.After(20 * time.Millisecond):
	}
	fc.Advance(time.Nanosecond)
	select {
	case res := <-results:
		if res.Type != msgResult || len(res.RecvNs) != 2 {
			t.Fatalf("result = %+v", res)
		}
		if res.RecvNs[0] < 0 || res.RecvNs[1] != -1 {
			t.Fatalf("recvNs = %v, want [stamped, lost]", res.RecvNs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("finish still blocked at the drain deadline")
	}
}

// TestFinishStreamUnblocksOnCompletion: the last straggler's arrival
// releases the drain immediately — the timer never has to fire.
func TestFinishStreamUnblocksOnCompletion(t *testing.T) {
	fc := newFakeClock()
	r, err := ListenReceiverConfig("127.0.0.1:0", Config{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	const size = 32
	if reply := openRawStream(t, tr, 1, 2, size); reply.Type != msgReady {
		t.Fatalf("stream setup reply = %+v", reply)
	}
	if _, err := tr.udp.Write(probePacket(tr.SessionID(), 1, 0, size)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first packet stamped", func() bool { return r.Stats().Packets == 1 })
	results := make(chan ctrlMsg, 1)
	go func() { results <- finishRawStream(t, tr, 1, 30_000) }()
	waitFor(t, "drain timer armed", func() bool { return len(fc.armed()) == 1 })
	// The straggler arrives; the never-fired fake timer must not hold
	// the result back.
	if _, err := tr.udp.Write(probePacket(tr.SessionID(), 1, 1, size)); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-results:
		if res.Type != msgResult || res.RecvNs[0] < 0 || res.RecvNs[1] < 0 {
			t.Fatalf("result = %+v, want both slots stamped", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("finish still blocked after the stream completed")
	}
}

// TestFinishStreamCancelledByShutdown: receiver Close releases a
// session handler parked in the drain wait, even though its timer (the
// fake clock never advances) and its stream (forever incomplete) never
// would.
// Without shutdown cancellation the handler goroutine — and the
// session it pins — would leak until the declared deadline.
func TestFinishStreamCancelledByShutdown(t *testing.T) {
	fc := newFakeClock()
	r, err := ListenReceiverConfig("127.0.0.1:0", Config{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	tr, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	if reply := openRawStream(t, tr, 1, 2, 32); reply.Type != msgReady {
		t.Fatalf("stream setup reply = %+v", reply)
	}
	// No probe traffic at all: the stream stays incomplete forever.
	if err := tr.enc.Encode(ctrlMsg{Type: msgDone, ID: 1, DeadlineMs: 25_000}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain timer armed", func() bool { return len(fc.armed()) == 1 })
	r.Close()
	// The handler's return path runs dropSession; if the drain wait were
	// not cancellable at shutdown the session would stay registered.
	waitFor(t, "session handler released by shutdown", func() bool {
		return r.Stats().ActiveSessions == 0
	})
}
