package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"abw/internal/core"
	"abw/internal/monitor"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

const (
	fleetTargets = 1000
	// scrapeEvery is the scraper's open-loop schedule. It is set by the
	// sample count, not by a collector's habits: a scrape phase of 15 s
	// (half of a 30 s run) holds 100 scrapes, so the p90 has ten beyond
	// it. A scrape takes about 60 ms, so scrapes do not queue. README.md
	// shows that the scrape p50 moves little at a 1 s schedule.
	scrapeEvery = 150 * time.Millisecond
	// fleetInterval is monitor.Config's default interval.
	fleetInterval = 10 * time.Second
	// fleetStep is how far each cycle advances the fake clock: the
	// default interval plus its default jitter (10%), so every target
	// runs exactly once per cycle.
	fleetStep = fleetInterval * 11 / 10
	// cyclesPerSecond sizes the closed loop per measured second. The
	// loop's CPU time per run follows the host's speed, which drifts by
	// ±10% over seconds on a shared machine; a loop spanning about half
	// the run averages more of that drift than a shorter one.
	cyclesPerSecond = 6
	// defaultHistory is monitor.Config's default series capacity.
	defaultHistory = 512
)

var (
	fleetScenarios = []string{"canonical", "poisson", "bursty", "codel"}
	// fleetTools are cheap classical tools with parameters under which
	// runs rarely fail; the kNN tool is left out on purpose.
	fleetTools = []struct {
		name   string
		params registry.Params
	}{
		{"spruce", registry.Params{Repeat: 2}},
		{"delphi", registry.Params{Repeat: 2, StreamLen: 5}},
		{"pathload", registry.Params{Repeat: 2, StreamLen: 20, MaxRounds: 6}},
		{"pathchirp", registry.Params{Repeat: 2}},
	}
)

func fleetTargetList() []monitor.Target {
	ts := make([]monitor.Target, fleetTargets)
	for i := range ts {
		tool := fleetTools[i%len(fleetTools)]
		ts[i] = monitor.Target{
			Name:     fmt.Sprintf("edge-%04d", i),
			Tenant:   fmt.Sprintf("tenant-%d", i%7),
			Tool:     tool.name,
			Scenario: fleetScenarios[(i/len(fleetTools))%len(fleetScenarios)],
			Params:   tool.params,
		}
	}
	return ts
}

// watchClock is a monitor.FakeClock that signals every timer Reset and
// can fire the scheduler's timer at will. Only the scheduler loop makes
// a timer (the fleet writes no snapshots), and it resets it each time
// it has dispatched every due run and goes back to waiting.
type watchClock struct {
	*monitor.FakeClock
	resets chan struct{}
	mu     sync.Mutex
	timer  monitor.Timer
}

type watchTimer struct {
	monitor.Timer
	resets chan struct{}
}

func (c *watchClock) NewTimer(d time.Duration) monitor.Timer {
	t := c.FakeClock.NewTimer(d)
	c.mu.Lock()
	c.timer = t
	c.mu.Unlock()
	return &watchTimer{t, c.resets}
}

func (t *watchTimer) Reset(d time.Duration) {
	t.Timer.Reset(d)
	select {
	case t.resets <- struct{}{}:
	default:
	}
}

// kick fires the scheduler's timer now, so its loop looks at the
// schedule again at the current fake time. The loop expects spurious
// firings: it dispatches what is due and re-arms for the earliest
// deadline. A kick repairs the one race the fake clock has: a loop that
// read the time before an Advance and re-arms after it sets its timer a
// whole step late.
func (c *watchClock) kick() {
	c.mu.Lock()
	t := c.timer
	c.mu.Unlock()
	if t != nil {
		t.Reset(0)
	}
}

// await returns at the next timer Reset, or after d.
func (c *watchClock) await(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.resets:
	case <-t.C:
	}
}

// fleet is one started monitor and its clock.
type fleet struct {
	m   *monitor.Monitor
	clk *watchClock
}

// newFleet builds and starts the monitor with default settings, runs
// its first interval, which compiles every target's scenario, and fills
// every series to its capacity with copies of its last point: the store
// of a monitor that has run for days, so scrapes roll up full rings
// from the first one on.
func newFleet(seed uint64) (*fleet, error) {
	clk := &watchClock{FakeClock: monitor.NewFakeClock(time.Unix(1_700_000_000, 0).UTC()), resets: make(chan struct{}, 1)}
	m, err := monitor.New(monitor.Config{Targets: fleetTargetList(), Seed: seed, Clock: clk})
	if err != nil {
		return nil, err
	}
	f := &fleet{m, clk}
	m.Start()
	if err := f.firstInterval(); err != nil {
		m.Close()
		return nil, err
	}
	for _, s := range m.Store().All() {
		p := s.Last(1)[0]
		for s.Len() < defaultHistory {
			s.Append(p)
		}
	}
	return f, nil
}

// firstInterval advances the clock over the first interval in short
// steps, each drained before the next. Start spreads the targets'
// first runs over the interval, and running each at its own offset
// keeps their next deadlines spread, as a long-running monitor's are;
// one 11 s step would bunch them all into its last 2 s.
func (f *fleet) firstInterval() error {
	const steps = 20
	for k := 0; k < steps; k++ {
		f.clk.Advance(fleetInterval / steps)
		if err := f.settle(); err != nil {
			return fmt.Errorf("first interval: %w", err)
		}
	}
	return nil
}

// cycleTimeout bounds one cycle or settle; a 1000-run cycle takes about
// 0.1 s on two CPUs.
const cycleTimeout = 60 * time.Second

// cycle advances the clock one step, waits until the runs it made due
// have all finished, and returns that time and the CPU time the process
// used meanwhile; then it settles. Every target runs exactly once in a
// cycle, since the settle before it left none due and each run's next
// deadline lies within one step; a cycle that ran any other number of
// runs is an error.
func (f *fleet) cycle() (took, cpu time.Duration, err error) {
	p0 := f.m.Stats().Points
	c0, start := cpuTime(), time.Now()
	f.clk.Advance(fleetStep)
	deadline := time.Now().Add(cycleTimeout)
	for {
		f.clk.await(20 * time.Millisecond)
		st := f.m.Stats()
		if st.Active == 0 {
			if st.Points-p0 >= fleetTargets {
				break
			}
			f.clk.kick()
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("cycle finished %d of %d runs in %v", st.Points-p0, fleetTargets, cycleTimeout)
		}
	}
	took, cpu = time.Since(start), cpuTime()-c0
	if err := f.settle(); err != nil {
		return 0, 0, err
	}
	if n := f.m.Stats().Points - p0; n != fleetTargets {
		return 0, 0, fmt.Errorf("cycle ran %d runs for %d targets", n, fleetTargets)
	}
	return took, cpu, nil
}

// settle kicks the scheduler at the current fake time until two kicks
// in a row find no run due and none in flight, so that the next Advance
// cannot race a scheduler still looking at the schedule.
func (f *fleet) settle() error {
	deadline := time.Now().Add(cycleTimeout)
	for quiet := 0; quiet < 2; {
		p := f.m.Stats().Points
		f.clk.kick()
		f.clk.await(20 * time.Millisecond)
		for f.m.Stats().Active > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("settle: runs still in flight after %v", cycleTimeout)
			}
			f.clk.await(5 * time.Millisecond)
		}
		if f.m.Stats().Points == p {
			quiet++
		} else {
			quiet = 0
		}
	}
	return nil
}

// scrape is one timed GET through the monitor's handler: its latency
// from the due time, and how late the scraper started it.
type scrape struct {
	latency, late time.Duration
	ok            bool
}

func get(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// scraper GETs /metrics every scrapeEvery until stop is closed, timing
// each scrape from its due time.
func scraper(h http.Handler, tr *tracer, parent int, stop <-chan struct{}) []scrape {
	var out []scrape
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * scrapeEvery)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return out
		default:
		}
		began := time.Now()
		id := tr.begin("monitor.http.metrics", parent)
		code, body := get(h, "/metrics")
		tr.end(id)
		out = append(out, scrape{
			latency: time.Since(due),
			late:    began.Sub(due),
			ok:      code == http.StatusOK && strings.Contains(body, "abw_monitor_runs_total"),
		})
	}
}

// fleetRun is one measured half (untraced or traced) of a run.
type fleetRun struct {
	scrapes []scrape
	// scrapeRuns counts the runs that finished during the scrape phase.
	scrapeRuns uint64
	cycles     []time.Duration
	// rates holds each cycle's completed runs per second, and cpu its
	// CPU time per completed run in ms.
	rates, cpu []float64
	allocMB    float64
	runsDone   uint64
}

// scrapePhase scrapes the fleet for the given time while it runs at its
// configured pace: the fake clock follows the real one, so the targets,
// spread over the interval by set-up, offer 100 runs per second, which
// the store takes in while the scraper reads it.
func (f *fleet) scrapePhase(tr *tracer, seconds float64, r *fleetRun) {
	root := tr.begin("monitor-fleet", 0)
	defer tr.end(root)
	// Start the scrape phase from the same collector state every time.
	runtime.GC()
	before := f.m.Stats()
	stop := make(chan struct{})
	done := make(chan []scrape)
	go func() { done <- scraper(f.m.Handler(), tr, root, stop) }()
	const tick = 20 * time.Millisecond
	start := time.Now()
	for k := 1; time.Since(start).Seconds() < seconds; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * tick)))
		f.clk.Advance(tick)
	}
	close(stop)
	r.scrapes = <-done
	after := f.m.Stats()
	r.scrapeRuns = (after.RunsOK + after.RunsErr) - (before.RunsOK + before.RunsErr)
}

// loopPhase runs cyclesPerSecond×seconds cycles back to back, the
// closed loop; on two CPUs that takes about half of seconds. It runs
// a fixed number of cycles, not a fixed time, because every cycle grows
// the targets' simulations: a fixed time would tie peak memory to
// speed.
func (f *fleet) loopPhase(tr *tracer, seconds float64, r *fleetRun) error {
	root := tr.begin("monitor-fleet", 0)
	defer tr.end(root)
	before := f.m.Stats()
	prev := before.RunsOK + before.RunsErr
	alloc := totalAllocMB()
	for i := 0; i < max(1, int(cyclesPerSecond*seconds)); i++ {
		id := tr.begin("monitor.cycle", root)
		d, cpu, err := f.cycle()
		tr.end(id)
		if err != nil {
			return err
		}
		st := f.m.Stats()
		runs := float64(st.RunsOK + st.RunsErr - prev)
		r.cycles = append(r.cycles, d)
		r.rates = append(r.rates, runs/d.Seconds())
		r.cpu = append(r.cpu, ms(cpu)/runs)
		prev = st.RunsOK + st.RunsErr
	}
	r.allocMB = totalAllocMB() - alloc
	r.runsDone = prev - (before.RunsOK + before.RunsErr)
	return nil
}

// runFleet is the monitor-fleet workload.
func runFleet(opts options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	f, setupS, err := timeSetup(func() (*fleet, error) { return newFleet(opts.seed) },
		func(f *fleet) { f.m.Close() })
	if err != nil {
		return nil, err
	}
	defer f.m.Close()

	measure := opts.seconds
	if tr != nil {
		measure /= 2
	}
	// Both halves of a traced run scrape before either runs the closed
	// loop: a cycle runs every target at once and leaves them bunched,
	// while the scrape phase needs them spread over the interval.
	tracers := []*tracer{nil}
	if tr != nil {
		tracers = append(tracers, tr)
	}
	runs := make([]fleetRun, len(tracers))
	mem := startMemPeak()
	defer mem.close()
	first := f.m.Stats()
	for i, t := range tracers {
		f.scrapePhase(t, measure/2, &runs[i])
	}
	// Runs the last scrape-phase ticks made due finish here, before the
	// closed loop counts its cycles.
	if err := f.settle(); err != nil {
		return nil, err
	}
	for i, t := range tracers {
		if err := f.loopPhase(t, measure, &runs[i]); err != nil {
			return nil, err
		}
	}
	memMB := mem.take()
	last := f.m.Stats()

	dispatched := last.Points - first.Points
	ok, bad := last.RunsOK-first.RunsOK, last.RunsErr-first.RunsErr
	deferred, refused := last.Deferred-first.Deferred, last.Refused-first.Refused
	out.attempted = int(dispatched)
	out.failed = int(bad + refused)
	out.check(ok+bad+deferred+refused == dispatched,
		"runs_ok %d + runs_err %d + deferred %d + refused %d != %d dispatched runs", ok, bad, deferred, refused, dispatched)
	if opts.corrupt {
		f.m.Store().Append("stray", "spruce", "default", monitor.Point{})
	}
	series := len(f.m.Store().All())
	out.check(series == fleetTargets, "store holds %d series, want one per target (%d)", series, fleetTargets)

	var done, scraped uint64
	var lat, late, rates, cpu []float64
	badScrapes := 0
	for _, r := range runs {
		done += r.runsDone
		scraped += r.scrapeRuns
		rates = append(rates, r.rates...)
		cpu = append(cpu, r.cpu...)
		for _, s := range r.scrapes {
			lat = append(lat, ms(s.latency))
			late = append(late, ms(s.late))
			if !s.ok {
				badScrapes++
			}
		}
	}
	out.check(badScrapes == 0, "%d of %d /metrics scrapes failed", badScrapes, len(lat))
	// The median cycle's rate, not the mean, so a stall on a shared
	// host moves one cycle rather than the run's figure.
	perS := median(rates)
	p50, p90 := median(lat), quantile(lat, 0.9)
	out.named["monitor_runs_per_s"] = metric{perS, "1/s"}
	out.named["monitor_scrape_p50_ms"] = metric{p50, "ms"}
	out.named["monitor_scrape_p90_ms"] = metric{p90, "ms"}
	// How late the open-loop scraper started its scrapes: a backlog
	// shows here before it shows in the latencies.
	out.named["monitor_scraper_late_p90_ms"] = metric{quantile(late, 0.9), "ms"}
	out.named["monitor_cpu_ms_per_run"] = metric{median(cpu), "ms"}
	out.generic["cpu_ms_per_op"] = median(cpu)
	fmt.Fprintf(opts.log, "monitor-fleet: %d scrapes beside %d runs, the p90 over all of them; %d runs in %d closed-loop cycles\n",
		len(lat), scraped, done, len(rates))

	if tr != nil {
		if err := fleetLayers(f, runs[0], runs[1], tr, out.layers); err != nil {
			return nil, err
		}
		c := out.layers
		c["monitor.runs_ok"], c["monitor.runs_err"] = float64(ok), float64(bad)
		c["monitor.deferred"], c["monitor.refused"] = float64(deferred), float64(refused)
		c["monitor.overruns"] = float64(last.Overruns - first.Overruns)
		c["monitor.recompiles"] = float64(last.Recompiles - first.Recompiles)
		c["monitor.points"] = float64(dispatched)
	}
	finishCommon(out, setupS, memMB)
	return out, nil
}

// fleetLayers reports the monitor's layers from the traced phase and
// from replays of its work outside the monitor.
func fleetLayers(f *fleet, untraced, traced fleetRun, tr *tracer, into map[string]float64) error {
	into["monitor.cycle_ms"] = median(durationsMS(traced.cycles))
	into["monitor.alloc_mb_per_krun"] = ratio(traced.allocMB, float64(traced.runsDone)/1000)
	var u, t []float64
	for _, s := range untraced.scrapes {
		u = append(u, ms(s.latency))
	}
	for _, s := range traced.scrapes {
		t = append(t, ms(s.latency))
	}
	into["trace.overhead_frac"] = overhead(t, u)

	// Every monitor endpoint, timed on the quiescent monitor.
	h := f.m.Handler()
	for _, ep := range []struct{ name, path string }{
		{"metrics", "/metrics"}, {"series", "/api/series"}, {"status", "/api/status"},
	} {
		var xs []float64
		for i := 0; i < 11; i++ {
			t0 := time.Now()
			code, body := get(h, ep.path)
			xs = append(xs, ms(time.Since(t0)))
			if code != http.StatusOK {
				return fmt.Errorf("GET %s: status %d", ep.path, code)
			}
			if ep.name == "metrics" {
				into["monitor.http.metrics_bytes"] = float64(len(body))
			}
		}
		into["monitor.http."+ep.name+"_ms"] = median(xs)
	}

	// Store and ledger: replay every buffered point into fresh ones.
	var points []monitor.Point
	var tenants []string
	for _, s := range f.m.Store().All() {
		for _, p := range s.Last(0) {
			points = append(points, p)
			tenants = append(tenants, s.Tenant)
		}
	}
	st := monitor.NewStore(512)
	t0 := time.Now()
	for i, p := range points {
		st.Append(fmt.Sprint(i%fleetTargets), "spruce", tenants[i], p)
	}
	into["monitor.store.append_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(points)))
	led := monitor.NewLedger(core.Budget{}, 0, time.Second, f.clk)
	t0 = time.Now()
	for i, p := range points {
		c := monitor.Cost{Streams: p.Streams, Packets: p.Packets, Bytes: p.ProbeBytes}
		id, err := led.Admit(tenants[i], c)
		if err != nil {
			return fmt.Errorf("ledger replay: %w", err)
		}
		led.Commit(id, c)
	}
	into["monitor.ledger.admit_commit_ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(points)))

	// Estimation: the first hundred targets, which cover every tool and
	// scenario, each on a fresh compile of its scenario, through the
	// same timed transport as the matrix replay.
	var est, probeT time.Duration
	streams, n := 0, 0
	self := map[string]time.Duration{}
	root := tr.begin("replay", 0)
	for i, tg := range fleetTargetList() {
		if i == 100 {
			break
		}
		d, _ := scenario.Lookup(tg.Scenario)
		id := tr.begin("scenario.compile", root)
		cpl, err := d.CompileSeededAggregate(uint64(i)+1, matrixRecorderEpoch)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("estimate replay: %w", err)
		}
		params := tg.Params
		params.Capacity = cpl.Capacity
		params.Rand = rng.New(uint64(i) + 1)
		t0 := time.Now()
		tt := estimateTimed(tr, root, tg.Tool, params, cpl.Transport)
		dt := time.Since(t0)
		est += dt
		probeT += tt.probe
		self[tg.Tool] += dt - tt.probe - tt.features
		streams += tt.streams
		n++
	}
	tr.end(root)
	perRun := ms(est) / float64(n)
	into["monitor.estimate_ms_per_run"] = perRun
	into["sim.probe_ms"] = ms(probeT)
	into["sim.streams"] = float64(streams)
	into["sim.probe_us_per_stream"] = float64(probeT.Microseconds()) / float64(max(streams, 1))
	for tool, d := range self {
		into["tools."+tool+".self_ms"] = ms(d)
	}
	tr.layerMetrics(into, "monitor-fleet", "replay")
	return nil
}
