package tcp

import (
	"testing"
	"time"

	"abw/internal/unit"
)

// lossyBulk runs a buffer-limited bulk connection over a bottleneck
// whose buffer holds a few segments, so losses drive it through fast
// retransmit and, when a whole window's tail is lost, the RTO path.
// The clock advances in short slices so the run can note whether fast
// recovery was ever entered; slicing never changes event order.
func lossyBulk(t *testing.T, pooled bool) (c *Conn, sawRecovery bool) {
	t.Helper()
	tb := newTestbed(5*unit.Mbps, 3, 40*time.Millisecond)
	tb.s.SetPooling(pooled)
	c = tb.conn(t, Config{RcvWnd: 64})
	c.Start(0)
	for at := time.Duration(0); at < 20*time.Second; at += 5 * time.Millisecond {
		tb.s.RunUntil(at)
		sawRecovery = sawRecovery || c.inRecovery
	}
	return c, sawRecovery
}

// TestPooledConnBitIdenticalToUnpooled: segments and ACKs come from the
// simulation's packet pool and are recycled as soon as their arrival
// callback returns. Reuse must never change what the connection sees,
// through loss, fast retransmit and timeouts alike.
func TestPooledConnBitIdenticalToUnpooled(t *testing.T) {
	pooled, recovered := lossyBulk(t, true)
	plain, _ := lossyBulk(t, false)
	if !recovered {
		t.Fatal("the connection never entered fast recovery")
	}
	if plain.Timeouts() == 0 {
		t.Fatal("the connection never timed out")
	}
	if pooled.Retransmits() != plain.Retransmits() || pooled.Timeouts() != plain.Timeouts() {
		t.Fatalf("pooled %d retransmits / %d timeouts, unpooled %d / %d",
			pooled.Retransmits(), pooled.Timeouts(), plain.Retransmits(), plain.Timeouts())
	}
	if len(pooled.progress) != len(plain.progress) {
		t.Fatalf("pooled %d progress points, unpooled %d", len(pooled.progress), len(plain.progress))
	}
	for i := range plain.progress {
		if pooled.progress[i] != plain.progress[i] {
			t.Fatalf("progress point %d: pooled %+v != unpooled %+v", i, pooled.progress[i], plain.progress[i])
		}
	}
	for _, w := range [][2]time.Duration{{0, 20 * time.Second}, {2 * time.Second, 10 * time.Second}, {5 * time.Second, 5*time.Second + 300*time.Millisecond}} {
		if a, b := pooled.Throughput(w[0], w[1]), plain.Throughput(w[0], w[1]); a != b {
			t.Errorf("throughput over [%v, %v): pooled %v != unpooled %v", w[0], w[1], a, b)
		}
	}
	t.Logf("%d retransmits, %d timeouts, %d progress points", plain.Retransmits(), plain.Timeouts(), len(plain.progress))
}
