// Package monitor is the fleet-scale continuous measurement service:
// the layer that turns one-shot estimation runs into the ongoing,
// variability-aware process the paper insists avail-bw estimation must
// be. A single probe is a sample of a bursty process (pitfall 1); the
// monitor schedules periodic estimates for N targets × tools, stores
// each series in a fixed-capacity ring with variation-range rollups,
// and serves the result over HTTP (JSON and Prometheus text).
//
// Scale discipline comes from admission control: every scheduled run
// must reserve its probing cost with a fleet-wide Ledger — a shared,
// concurrency-safe core.Budget plus an aggregate probe-rate cap — so
// the total load the fleet injects is bounded by construction, however
// many tenants share the receiver fleet. That is the paper's
// intrusiveness pitfall solved where it actually bites: not per tool,
// per fleet.
//
// Targets come in two flavors: live (a receiver's control address,
// probed over livenet.Pool sessions) and simulated (a scenario-catalog
// name compiled onto the deterministic simulator) — the latter makes
// the whole service hermetic for CI and load tests. All scheduling
// runs against an injectable Clock; under a FakeClock the monitor's
// behavior is a pure function of (config, seed, advance script).
package monitor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"abw/internal/clock"
	"abw/internal/core"
	"abw/internal/livenet"
	"abw/internal/tools/registry"
	"abw/internal/unit"
)

// Target is one scheduled measurement assignment: a tool running
// periodically against a live receiver or a simulated scenario.
type Target struct {
	// Name identifies the target in series keys, stats, and metrics.
	// Names must be unique per tool.
	Name string
	// Tenant is the admission-accounting group (default "default"):
	// budget fairness is per fleet, attribution is per tenant.
	Tenant string
	// Tool is the registered estimation technique to run (see
	// registry.Names).
	Tool string

	// Addr is a live receiver's control address. Exactly one of Addr
	// and Scenario must be set.
	Addr string
	// Scenario is a scenario-catalog name; runs probe the compiled
	// simulated path, consecutive runs observing consecutive slices of
	// its cross-traffic process.
	Scenario string

	// Interval overrides Config.Interval for this target.
	Interval time.Duration
	// Params parameterizes the tool (zero fields take the tool's
	// defaults). Rand and Budget are run wiring owned by the monitor
	// and must be left nil/zero; for sim targets a zero Capacity is
	// filled from the scenario's ground truth.
	Params registry.Params
	// EstBytes overrides the projected per-run probe volume used for
	// admission until the first run reports actuals.
	EstBytes unit.Bytes
}

// Config assembles a Monitor.
type Config struct {
	// Targets are the scheduled assignments (at least one).
	Targets []Target
	// Interval is the default time between a target's runs (default
	// 10 s).
	Interval time.Duration
	// Jitter spreads each target's runs by a uniform draw in
	// ±Jitter×interval (default 0.1, clamped to [0, 0.5]). Jitter is
	// per tenant and deterministic in Seed, so a thousand targets
	// configured identically do not fire as one thundering herd.
	Jitter float64
	// Seed drives every random choice the monitor makes (jitter,
	// per-run tool randomness, sim recompilation seeds) through pure
	// rng.Derive streams.
	Seed uint64
	// MaxConcurrent bounds the estimation runs in flight at once
	// (default 16).
	MaxConcurrent int
	// History is each series' ring-buffer capacity in points (default
	// 512).
	History int
	// Budget is the fleet-wide lifetime probing budget shared by every
	// run across every tenant; zero fields are unlimited.
	Budget core.Budget
	// MaxProbeRate caps the fleet's aggregate probe volume per second
	// (admission-deferred above it); zero is unlimited.
	MaxProbeRate unit.Rate
	// RateWindow is the sliding window MaxProbeRate is enforced over
	// (default 1 s).
	RateWindow time.Duration
	// RunTimeout bounds one estimation run's wall time; on expiry a
	// live run's transport is closed to unblock it (default 2 min).
	RunTimeout time.Duration
	// PoolSize is the number of sessions dialed per distinct live
	// receiver address (default min(4, MaxConcurrent)).
	PoolSize int
	// SnapshotPath, when set, persists the store there every
	// SnapshotEvery (default 1 min) and restores from it at startup.
	SnapshotPath  string
	SnapshotEvery time.Duration
	// Retention, when positive, compacts points older than this from
	// the store before each snapshot.
	Retention time.Duration
	// Clock is the time source; nil means the real clock.
	Clock Clock
	// Receiver, when set, is an in-process live receiver whose stats
	// the monitor's HTTP layer exposes alongside its own.
	Receiver *livenet.Receiver
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter > 0.5 {
		c.Jitter = 0.5
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.History <= 0 {
		c.History = 512
	}
	if c.RateWindow <= 0 {
		c.RateWindow = time.Second
	}
	if c.RunTimeout <= 0 {
		c.RunTimeout = 2 * time.Minute
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
		if c.MaxConcurrent < 4 {
			c.PoolSize = c.MaxConcurrent
		}
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = time.Minute
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Stats is a snapshot of the monitor's counters.
type Stats struct {
	// Targets is the number of scheduled assignments; Scheduled is how
	// many are currently waiting in the schedule or running — the
	// "concurrently scheduled sessions" the service sustains.
	Targets   int `json:"targets"`
	Scheduled int `json:"scheduled"`
	// Active is the estimation runs in flight right now.
	Active int `json:"active"`
	// RunsOK and RunsErr count completed runs by outcome; Deferred and
	// Refused count admission decisions that kept a run off the wire.
	RunsOK   uint64 `json:"runs_ok"`
	RunsErr  uint64 `json:"runs_err"`
	Deferred uint64 `json:"deferred"`
	Refused  uint64 `json:"refused"`
	// Overruns counts runs that finished after their next slot was
	// already due (the next run is pushed out, never overlapped).
	Overruns uint64 `json:"overruns"`
	// Recompiles counts sim targets rebuilt after exhausting their
	// scenario horizon; Redials counts live transports discarded as
	// broken.
	Recompiles uint64 `json:"recompiles"`
	Redials    uint64 `json:"redials"`
	// Points is the lifetime number of series points appended.
	Points uint64 `json:"points"`
}

// Monitor is the continuous measurement service: a scheduler over an
// injectable clock, a time-series store, a fleet admission ledger, and
// (via Handler) an HTTP stats surface. Build with New, start with
// Start, stop with Close.
type Monitor struct {
	cfg    Config
	clock  Clock
	store  *Store
	ledger *Ledger

	root     context.Context
	cancel   context.CancelFunc
	wake     chan struct{}
	loopDone chan struct{}

	mu      sync.Mutex
	heap    entryHeap
	entries []*entry
	pools   map[string]*livenet.Pool
	started bool
	closed  bool

	active     int
	runsOK     uint64
	runsErr    uint64
	overruns   uint64
	recompiles uint64
	redials    uint64

	sem chan struct{}
	wg  sync.WaitGroup
}

// New validates the config and builds the monitor without starting it:
// every target must name a registered tool, exactly one of
// Addr/Scenario, a cataloged scenario where one is named, and satisfy
// the tool's parameter requirements (sim targets may leave Capacity to
// ground truth). If SnapshotPath names an existing snapshot, the store
// restores from it.
func New(cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("monitor: config needs at least one target")
	}
	m := &Monitor{
		cfg:      cfg,
		clock:    cfg.Clock,
		store:    NewStore(cfg.History),
		ledger:   NewLedger(cfg.Budget, cfg.MaxProbeRate, cfg.RateWindow, cfg.Clock),
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
		pools:    make(map[string]*livenet.Pool),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
	}
	m.root, m.cancel = context.WithCancel(context.Background())
	seen := make(map[string]bool, len(cfg.Targets))
	for i, t := range cfg.Targets {
		e, err := m.newEntry(i, t)
		if err != nil {
			return nil, err
		}
		if seen[e.key] {
			return nil, fmt.Errorf("monitor: duplicate target %q", e.key)
		}
		seen[e.key] = true
		m.entries = append(m.entries, e)
	}
	if cfg.SnapshotPath != "" {
		if snap, err := LoadSnapshot(cfg.SnapshotPath); err == nil {
			m.store.Restore(snap)
		}
	}
	return m, nil
}

// Start begins scheduling. The first run of each target is spread over
// one jittered interval from now. Start is idempotent; a closed
// monitor cannot be restarted.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closed {
		return
	}
	m.started = true
	now := m.clock.Now()
	for _, e := range m.entries {
		// The initial offset is a full uniform draw over the interval:
		// N identical targets land spread across [0, interval), not in
		// one burst at t=0.
		e.at = now.Add(time.Duration(e.jitter.Float64() * float64(e.interval)))
		m.heap.push(e)
	}
	go m.loop()
	if m.cfg.SnapshotPath != "" {
		m.wg.Add(1)
		go m.snapshotLoop()
	}
}

// Close stops scheduling, waits for in-flight runs, closes every live
// pool, and (when configured) writes a final snapshot. It is
// idempotent and safe to call concurrently.
func (m *Monitor) Close() {
	m.mu.Lock()
	if m.closed {
		started := m.started
		m.mu.Unlock()
		if started {
			<-m.loopDone
		}
		return
	}
	m.closed = true
	started := m.started
	pools := m.pools
	m.pools = map[string]*livenet.Pool{}
	m.mu.Unlock()

	m.cancel()
	// Closing the pools unblocks any run stuck inside a socket read;
	// context cancellation alone only reaches stream boundaries.
	for _, p := range pools {
		p.Close()
	}
	if started {
		<-m.loopDone
	} else {
		close(m.loopDone)
	}
	m.wg.Wait()
	if m.cfg.SnapshotPath != "" {
		m.store.WriteSnapshot(m.cfg.SnapshotPath, m.clock.Now())
	}
}

// Store exposes the time-series store (read side: HTTP layer, tests).
func (m *Monitor) Store() *Store { return m.store }

// Ledger exposes the fleet admission ledger.
func (m *Monitor) Ledger() *Ledger { return m.ledger }

// Clock returns the monitor's time source.
func (m *Monitor) Clock() Clock { return m.clock }

// Stats snapshots the monitor's counters.
func (m *Monitor) Stats() Stats {
	led := m.ledger.Stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Targets:    len(m.entries),
		Scheduled:  m.heap.len() + m.active,
		Active:     m.active,
		RunsOK:     m.runsOK,
		RunsErr:    m.runsErr,
		Deferred:   led.Deferred,
		Refused:    led.Refused,
		Overruns:   m.overruns,
		Recompiles: m.recompiles,
		Redials:    m.redials,
		Points:     m.store.Appends(),
	}
}

// snapshotLoop persists the store every SnapshotEvery until Close,
// compacting first when a retention is configured.
func (m *Monitor) snapshotLoop() {
	defer m.wg.Done()
	t := m.clock.NewTimer(m.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-m.root.Done():
			return
		case <-t.C():
			now := m.clock.Now()
			if m.cfg.Retention > 0 {
				m.store.Compact(now.Add(-m.cfg.Retention))
			}
			m.store.WriteSnapshot(m.cfg.SnapshotPath, now)
			t.Reset(m.cfg.SnapshotEvery)
		}
	}
}
