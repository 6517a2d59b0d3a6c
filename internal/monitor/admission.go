package monitor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"abw/internal/clock"
	"abw/internal/core"
	"abw/internal/unit"
)

// Cost is the declared probing cost of one estimation run: what a run
// asks the ledger to reserve before any packet is sent, and what it
// commits (the measured actuals) afterwards.
type Cost struct {
	Streams int        `json:"streams,omitempty"`
	Packets int        `json:"packets,omitempty"`
	Bytes   unit.Bytes `json:"bytes,omitempty"`
}

// Budget renders the cost as the per-run core.Budget that enforces the
// reservation below the estimator: a run can never send more than it
// was admitted for, which is what makes the fleet cap a guarantee
// rather than an accounting convention.
func (c Cost) Budget() core.Budget {
	return core.Budget{MaxStreams: c.Streams, MaxPackets: c.Packets, MaxBytes: c.Bytes}
}

// Refusal is the error an inadmissible run gets. It wraps
// core.ErrBudget — the module-wide sentinel for "the probing budget,
// not the network, said no" — and distinguishes a deferral (the
// sliding-window rate cap is momentarily full; retry after RetryAfter)
// from a refusal (a lifetime fleet cap is exhausted; retrying cannot
// help).
type Refusal struct {
	// Tenant is the accounting group whose run was turned away.
	Tenant string
	// Reason is the human-readable explanation, naming the cap and the
	// numbers that tripped it.
	Reason string
	// RetryAfter is how long until the sliding window can admit the
	// cost; zero for lifetime-cap refusals.
	RetryAfter time.Duration
}

func (r *Refusal) Error() string {
	if r.RetryAfter > 0 {
		return fmt.Sprintf("monitor: %s: deferred %s (retry in %v)", r.Tenant, r.Reason, r.RetryAfter)
	}
	return fmt.Sprintf("monitor: %s: refused %s", r.Tenant, r.Reason)
}

// Unwrap makes errors.Is(err, core.ErrBudget) true for every
// admission-control error.
func (r *Refusal) Unwrap() error { return core.ErrBudget }

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	Tenant   string     `json:"tenant"`
	Admitted uint64     `json:"admitted"`
	Deferred uint64     `json:"deferred"`
	Refused  uint64     `json:"refused"`
	Bytes    unit.Bytes `json:"bytes"` // reserved + committed probe volume
}

// LedgerStats is a snapshot of the ledger's counters.
type LedgerStats struct {
	// Admitted, Deferred, Refused count admission decisions.
	Admitted uint64 `json:"admitted"`
	Deferred uint64 `json:"deferred"`
	Refused  uint64 `json:"refused"`
	// Streams, Packets, Bytes are the lifetime totals charged against
	// the fleet budget (reservations of in-flight runs included).
	Streams int        `json:"streams"`
	Packets int        `json:"packets"`
	Bytes   unit.Bytes `json:"bytes"`
	// WindowBytes is the probe volume charged inside the current rate
	// window, and WindowCap the most it may ever hold.
	WindowBytes unit.Bytes `json:"window_bytes"`
	WindowCap   unit.Bytes `json:"window_cap,omitempty"`
	// Tenants breaks the decisions down per accounting group, sorted by
	// tenant name.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// reservation is one admitted, not-yet-committed run.
type reservation struct {
	tenant string
	cost   Cost
	at     time.Time
}

// charge is probe volume attributed to an instant, for the sliding
// rate window.
type charge struct {
	at    time.Time
	bytes unit.Bytes
}

// Ledger is the fleet-wide admission controller: one concurrency-safe
// probing budget shared by every scheduled run across every tenant.
// Two caps compose:
//
//   - a lifetime core.Budget (streams/packets/bytes totals), the same
//     Budget type that caps a single estimation run, here shared across
//     sessions — exhausting it refuses runs permanently;
//   - an aggregate probe *rate* (MaxRate bytes/sec over Window), the
//     paper's intrusiveness pitfall at fleet scale — exceeding it
//     defers runs with a retry hint instead of refusing them.
//
// Admission is reserve-then-commit: Admit charges the declared cost
// under the lock (so concurrent admits can never jointly overshoot a
// cap), the run executes under a per-run core.Budget equal to its
// reservation, and Commit replaces the reservation with the measured
// actuals, returning the over-estimate to the pool. The invariant the
// tests assert: at every instant, charged volume never exceeds any
// configured cap.
type Ledger struct {
	clock Clock

	mu      sync.Mutex
	budget  core.Budget
	maxRate unit.Rate
	window  time.Duration

	streams int
	packets int
	bytes   unit.Bytes

	recent  []charge // window charges, oldest first
	winSum  unit.Bytes
	nextRes uint64
	open    map[uint64]reservation

	admitted uint64
	deferred uint64
	refused  uint64
	tenants  map[string]*TenantStats
}

// NewLedger builds a ledger enforcing the lifetime budget (zero fields
// unlimited; MaxDuration is ignored — wall time is the scheduler's
// axis, not a spendable volume) and the aggregate probe rate maxRate
// over the sliding window (default 1 s; rate 0 = unlimited).
func NewLedger(budget core.Budget, maxRate unit.Rate, window time.Duration, clk Clock) *Ledger {
	if clk == nil {
		clk = clock.Real{}
	}
	if window <= 0 {
		window = time.Second
	}
	return &Ledger{
		clock:   clk,
		budget:  budget,
		maxRate: maxRate,
		window:  window,
		open:    make(map[uint64]reservation),
		tenants: make(map[string]*TenantStats),
	}
}

// windowCap is the most probe volume the sliding window may hold.
func (l *Ledger) windowCap() unit.Bytes {
	if l.maxRate <= 0 {
		return 0
	}
	return unit.BytesIn(l.maxRate, l.window)
}

// expireLocked drops window charges older than now-window.
func (l *Ledger) expireLocked(now time.Time) {
	cutoff := now.Add(-l.window)
	i := 0
	for i < len(l.recent) && !l.recent[i].at.After(cutoff) {
		l.winSum -= l.recent[i].bytes
		i++
	}
	if i > 0 {
		l.recent = append(l.recent[:0], l.recent[i:]...)
	}
}

// Admit reserves the cost against every cap, returning a reservation
// ID for Commit. An inadmissible cost returns a *Refusal wrapping
// core.ErrBudget: deferrals carry the RetryAfter the caller should
// reschedule at, refusals are final. The check-and-charge is atomic
// under the ledger lock — the property that makes over-admission
// structurally impossible however many sessions admit concurrently.
func (l *Ledger) Admit(tenant string, c Cost) (uint64, error) {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(now)
	ts := l.tenantLocked(tenant)
	b := l.budget
	switch {
	case b.MaxStreams > 0 && l.streams+c.Streams > b.MaxStreams:
		l.refused++
		ts.Refused++
		return 0, &Refusal{Tenant: tenant, Reason: fmt.Sprintf(
			"fleet stream budget: %d charged + %d requested > MaxStreams %d", l.streams, c.Streams, b.MaxStreams)}
	case b.MaxPackets > 0 && l.packets+c.Packets > b.MaxPackets:
		l.refused++
		ts.Refused++
		return 0, &Refusal{Tenant: tenant, Reason: fmt.Sprintf(
			"fleet packet budget: %d charged + %d requested > MaxPackets %d", l.packets, c.Packets, b.MaxPackets)}
	case b.MaxBytes > 0 && l.bytes+c.Bytes > b.MaxBytes:
		l.refused++
		ts.Refused++
		return 0, &Refusal{Tenant: tenant, Reason: fmt.Sprintf(
			"fleet byte budget: %d charged + %d requested > MaxBytes %d", l.bytes, c.Bytes, b.MaxBytes)}
	}
	if wcap := l.windowCap(); wcap > 0 && l.winSum+c.Bytes > wcap {
		// A cost no window could ever hold is a refusal, not a deferral:
		// no amount of waiting makes it admissible.
		if c.Bytes > wcap {
			l.refused++
			ts.Refused++
			return 0, &Refusal{Tenant: tenant, Reason: fmt.Sprintf(
				"%d bytes exceed the whole rate window (%v at %.1f Mbps = %d bytes)",
				c.Bytes, l.window, l.maxRate.MbpsOf(), wcap)}
		}
		l.deferred++
		ts.Deferred++
		return 0, &Refusal{Tenant: tenant, RetryAfter: l.retryAfterLocked(now, c.Bytes, wcap), Reason: fmt.Sprintf(
			"fleet probe rate: %d window bytes + %d requested > %d (%.1f Mbps over %v)",
			l.winSum, c.Bytes, wcap, l.maxRate.MbpsOf(), l.window)}
	}
	l.streams += c.Streams
	l.packets += c.Packets
	l.bytes += c.Bytes
	if c.Bytes > 0 {
		l.recent = append(l.recent, charge{at: now, bytes: c.Bytes})
		l.winSum += c.Bytes
	}
	l.admitted++
	ts.Admitted++
	ts.Bytes += c.Bytes
	l.nextRes++
	id := l.nextRes
	l.open[id] = reservation{tenant: tenant, cost: c, at: now}
	return id, nil
}

// retryAfterLocked computes how long until enough window charges expire
// to fit need more bytes; the caller holds l.mu and has expired stale
// charges.
func (l *Ledger) retryAfterLocked(now time.Time, need, wcap unit.Bytes) time.Duration {
	free := wcap - l.winSum
	for _, ch := range l.recent {
		free += ch.bytes
		if free >= need {
			d := ch.at.Add(l.window).Sub(now)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			return d
		}
	}
	return l.window
}

// Commit settles a reservation with the run's measured actuals,
// returning any over-estimate to the lifetime pool. The rate window
// keeps the full reserved charge — the window's question is "what was
// the path exposed to around that instant", and the reservation was
// genuinely unavailable to everyone else while the run was in flight.
// Actuals above the reservation (possible only for costs the per-run
// budget does not meter, e.g. a SimOnly tool) charge the difference.
func (l *Ledger) Commit(id uint64, actual Cost) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, ok := l.open[id]
	if !ok {
		return
	}
	delete(l.open, id)
	l.streams += clampMin(actual.Streams-res.cost.Streams, -res.cost.Streams)
	l.packets += clampMin(actual.Packets-res.cost.Packets, -res.cost.Packets)
	dBytes := actual.Bytes - res.cost.Bytes
	if dBytes < -res.cost.Bytes {
		dBytes = -res.cost.Bytes
	}
	l.bytes += dBytes
	if ts := l.tenantLocked(res.tenant); ts != nil {
		ts.Bytes += dBytes
	}
}

// clampMin returns d, but no less than min (a refund can never exceed
// what was reserved).
func clampMin(d, min int) int {
	if d < min {
		return min
	}
	return d
}

func (l *Ledger) tenantLocked(tenant string) *TenantStats {
	ts := l.tenants[tenant]
	if ts == nil {
		ts = &TenantStats{Tenant: tenant}
		l.tenants[tenant] = ts
	}
	return ts
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() LedgerStats {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(now)
	st := LedgerStats{
		Admitted:    l.admitted,
		Deferred:    l.deferred,
		Refused:     l.refused,
		Streams:     l.streams,
		Packets:     l.packets,
		Bytes:       l.bytes,
		WindowBytes: l.winSum,
		WindowCap:   l.windowCap(),
	}
	for _, ts := range l.tenants {
		st.Tenants = append(st.Tenants, *ts)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}
